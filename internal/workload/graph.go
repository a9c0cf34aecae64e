package workload

import (
	"math/rand"

	"irdb/internal/triple"
)

// ProductCatalog generates the toy-scenario product graph: products with
// a category, a description, a price, and occasionally a
// confidence-scored category (the paper: "probabilities smaller than 1
// can originate from the data, e.g. due to confidence-based data
// extraction techniques").
func ProductCatalog(nProducts, vocabSize int, seed int64) []triple.Triple {
	v := NewVocabulary(vocabSize, seed)
	rng := rand.New(rand.NewSource(seed + 7))
	categories := []string{"toy", "book", "game", "tool", "garden", "kitchen"}
	out := make([]triple.Triple, 0, nProducts*4)
	for i := 1; i <= nProducts; i++ {
		id := sprintfID("p", i)
		out = append(out,
			triple.Triple{Subject: id, Property: "type", Obj: triple.String("product"), P: 1},
			triple.Triple{Subject: id, Property: "description", Obj: triple.String(v.Text(25)), P: 1},
			triple.Triple{Subject: id, Property: "price", Obj: triple.Int(int64(1 + rng.Intn(500))), P: 1},
		)
		cat := categories[rng.Intn(len(categories))]
		p := 1.0
		if rng.Float64() < 0.1 { // 10% extracted with confidence < 1
			p = 0.5 + 0.5*rng.Float64()
		}
		out = append(out, triple.Triple{Subject: id, Property: "category", Obj: triple.String(cat), P: p})
	}
	return out
}

// AuctionConfig sizes the auction graph of section 3. The paper's
// production system holds 8M lots in 25k auctions; the default bench
// scale is a laptop-sized slice with the same shape (≈320 lots per
// auction).
type AuctionConfig struct {
	Lots      int
	Auctions  int
	Sellers   int
	VocabSize int
	// LotDescLen / AuctionDescLen are mean description lengths in tokens.
	LotDescLen     int
	AuctionDescLen int
	Seed           int64
}

// DefaultAuctionConfig returns a laptop-scale auction graph preserving
// the paper's lots-per-auction ratio.
func DefaultAuctionConfig() AuctionConfig {
	return AuctionConfig{
		Lots:           8000,
		Auctions:       25,
		Sellers:        50,
		VocabSize:      20000,
		LotDescLen:     20,
		AuctionDescLen: 60,
		Seed:           42,
	}
}

// AuctionGraph generates the semantic graph of section 3: lots with
// titles and descriptions, connected to auctions (which have their own
// titles and descriptions) via hasAuction, and to sellers via hasSeller.
func AuctionGraph(cfg AuctionConfig) []triple.Triple {
	if cfg.Auctions < 1 {
		cfg.Auctions = 1
	}
	if cfg.Sellers < 1 {
		cfg.Sellers = 1
	}
	v := NewVocabulary(cfg.VocabSize, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	out := make([]triple.Triple, 0, cfg.Lots*5+cfg.Auctions*3+cfg.Sellers*2)

	for i := 1; i <= cfg.Auctions; i++ {
		id := sprintfID("auction", i)
		out = append(out,
			triple.Triple{Subject: id, Property: "type", Obj: triple.String("auction"), P: 1},
			triple.Triple{Subject: id, Property: "title", Obj: triple.String(v.Text(5)), P: 1},
			triple.Triple{Subject: id, Property: "description", Obj: triple.String(v.Text(cfg.AuctionDescLen)), P: 1},
		)
	}
	for i := 1; i <= cfg.Sellers; i++ {
		id := sprintfID("seller", i)
		out = append(out,
			triple.Triple{Subject: id, Property: "type", Obj: triple.String("seller"), P: 1},
			triple.Triple{Subject: id, Property: "name", Obj: triple.String(v.Text(3)), P: 1},
		)
	}
	for i := 1; i <= cfg.Lots; i++ {
		id := sprintfID("lot", i)
		auction := sprintfID("auction", 1+rng.Intn(cfg.Auctions))
		seller := sprintfID("seller", 1+rng.Intn(cfg.Sellers))
		out = append(out,
			triple.Triple{Subject: id, Property: "type", Obj: triple.String("lot"), P: 1},
			triple.Triple{Subject: id, Property: "title", Obj: triple.String(v.Text(6)), P: 1},
			triple.Triple{Subject: id, Property: "description", Obj: triple.String(v.Text(cfg.LotDescLen)), P: 1},
			triple.Triple{Subject: id, Property: "hasAuction", Obj: triple.String(auction), P: 1},
			triple.Triple{Subject: id, Property: "hasSeller", Obj: triple.String(seller), P: 1},
		)
	}
	return out
}

// WidePropertyGraph generates a graph with nProps distinct properties
// spread over nSubjects subjects — the data of the E2 benchmarks
// (BenchmarkE2SelfJoinScan, BenchmarkE2OnDemandHot), which reproduce the
// vertical-partitioning discussion (Abadi [1] vs Sidirourgos [13]:
// per-property tables degrade as the number of properties grows).
func WidePropertyGraph(nSubjects, nProps, vocabSize int, seed int64) []triple.Triple {
	v := NewVocabulary(vocabSize, seed)
	rng := rand.New(rand.NewSource(seed + 23))
	props := make([]string, nProps)
	for i := range props {
		props[i] = sprintfID("prop", i+1)
	}
	out := make([]triple.Triple, 0, nSubjects*4)
	for i := 1; i <= nSubjects; i++ {
		id := sprintfID("node", i)
		out = append(out, triple.Triple{Subject: id, Property: "type", Obj: triple.String("node"), P: 1})
		// every subject gets a handful of the available properties
		k := 2 + rng.Intn(3)
		for j := 0; j < k; j++ {
			prop := props[rng.Intn(len(props))]
			out = append(out, triple.Triple{Subject: id, Property: prop, Obj: triple.String(v.Text(8)), P: 1})
		}
	}
	return out
}
