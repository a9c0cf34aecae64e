package strategy

// Prebuilt strategies reproducing the paper's figures. They are plain
// data — the same structures a strategy designer would lay out in the
// visual environment — installed by irdb-server and
// DB.InstallBuiltinStrategies, and measured by the root E4/E7 benchmarks.

// Builtins returns the strategies shipped with the reproduction: the
// Figure 2 toy strategy, the Figure 3 auction strategy (lot weight 0.7,
// auction weight 0.3) and its production variant.
func Builtins() []*Strategy {
	return []*Strategy{Toy(), Auction(0.7, 0.3), Production()}
}

// Toy returns the Figure 2 strategy: rank toy products by their
// description. Blocks: filter products to category=toy, extract
// descriptions, rank by text BM25.
func Toy() *Strategy {
	return &Strategy{
		Name: "toy-products",
		Blocks: []Block{
			{ID: "toys", Type: "filter-property",
				Params: map[string]any{"property": "category", "value": "toy"}},
			{ID: "descriptions", Type: "extract-text",
				Params: map[string]any{"property": "description"}, Inputs: []string{"toys"}},
			{ID: "rank", Type: "rank-text",
				Params: map[string]any{"model": "bm25"}, Inputs: []string{"descriptions"}},
		},
		Output: "rank",
	}
}

// Auction returns the Figure 3 strategy: rank auction lots by their own
// description (left branch) mixed with the description of their
// containing auction (right branch), combined linearly with the given
// weights.
func Auction(wLot, wAuction float64) *Strategy {
	return &Strategy{
		Name: "auction-lots",
		Blocks: []Block{
			// step 1: select nodes of type lot
			{ID: "lots", Type: "select-type", Params: map[string]any{"type": "lot"}},
			// step 2, left branch: rank lots by their description
			{ID: "lot-texts", Type: "extract-text",
				Params: map[string]any{"property": "description"}, Inputs: []string{"lots"}},
			{ID: "rank-lots", Type: "rank-text",
				Params: map[string]any{"model": "bm25"}, Inputs: []string{"lot-texts"}},
			// step 3, right branch: traverse to auctions, rank them by
			// description, traverse back to lots
			{ID: "auctions", Type: "traverse",
				Params: map[string]any{"property": "hasAuction", "direction": "forward"},
				Inputs: []string{"lots"}},
			{ID: "auction-texts", Type: "extract-text",
				Params: map[string]any{"property": "description"}, Inputs: []string{"auctions"}},
			{ID: "rank-auctions", Type: "rank-text",
				Params: map[string]any{"model": "bm25"}, Inputs: []string{"auction-texts"}},
			{ID: "back-to-lots", Type: "traverse",
				Params: map[string]any{"property": "hasAuction", "direction": "backward"},
				Inputs: []string{"rank-auctions"}},
			// step 4: mix the two ranked lists
			{ID: "mix", Type: "mix",
				Params: map[string]any{"weights": []any{wLot, wAuction}},
				Inputs: []string{"rank-lots", "back-to-lots"}},
		},
		Output: "mix",
	}
}

// Production returns the production variant of the auction strategy
// described in section 3: "5 parallel keyword search branches and query
// expansion with synonyms and compound terms". The five branches rank
// lots by lot description, lot title, auction description, auction title,
// and seller name (traversing hasSeller), all with expansion enabled.
func Production() *Strategy {
	expand := func(extra map[string]any) map[string]any {
		out := map[string]any{"model": "bm25", "expand": true, "compounds": true}
		for k, v := range extra {
			out[k] = v
		}
		return out
	}
	return &Strategy{
		Name: "auction-lots-production",
		Blocks: []Block{
			{ID: "lots", Type: "select-type", Params: map[string]any{"type": "lot"}},

			// branch 1: lot description
			{ID: "b1-texts", Type: "extract-text",
				Params: map[string]any{"property": "description"}, Inputs: []string{"lots"}},
			{ID: "b1-rank", Type: "rank-text", Params: expand(nil), Inputs: []string{"b1-texts"}},

			// branch 2: lot title
			{ID: "b2-texts", Type: "extract-text",
				Params: map[string]any{"property": "title"}, Inputs: []string{"lots"}},
			{ID: "b2-rank", Type: "rank-text", Params: expand(nil), Inputs: []string{"b2-texts"}},

			// branch 3: auction description
			{ID: "b3-aucs", Type: "traverse",
				Params: map[string]any{"property": "hasAuction", "direction": "forward"},
				Inputs: []string{"lots"}},
			{ID: "b3-texts", Type: "extract-text",
				Params: map[string]any{"property": "description"}, Inputs: []string{"b3-aucs"}},
			{ID: "b3-rank", Type: "rank-text", Params: expand(nil), Inputs: []string{"b3-texts"}},
			{ID: "b3-back", Type: "traverse",
				Params: map[string]any{"property": "hasAuction", "direction": "backward"},
				Inputs: []string{"b3-rank"}},

			// branch 4: auction title
			{ID: "b4-aucs", Type: "traverse",
				Params: map[string]any{"property": "hasAuction", "direction": "forward"},
				Inputs: []string{"lots"}},
			{ID: "b4-texts", Type: "extract-text",
				Params: map[string]any{"property": "title"}, Inputs: []string{"b4-aucs"}},
			{ID: "b4-rank", Type: "rank-text", Params: expand(nil), Inputs: []string{"b4-texts"}},
			{ID: "b4-back", Type: "traverse",
				Params: map[string]any{"property": "hasAuction", "direction": "backward"},
				Inputs: []string{"b4-rank"}},

			// branch 5: seller name
			{ID: "b5-sellers", Type: "traverse",
				Params: map[string]any{"property": "hasSeller", "direction": "forward"},
				Inputs: []string{"lots"}},
			{ID: "b5-texts", Type: "extract-text",
				Params: map[string]any{"property": "name"}, Inputs: []string{"b5-sellers"}},
			{ID: "b5-rank", Type: "rank-text", Params: expand(nil), Inputs: []string{"b5-texts"}},
			{ID: "b5-back", Type: "traverse",
				Params: map[string]any{"property": "hasSeller", "direction": "backward"},
				Inputs: []string{"b5-rank"}},

			{ID: "mix", Type: "mix",
				Params: map[string]any{"weights": []any{0.35, 0.2, 0.2, 0.15, 0.1}},
				Inputs: []string{"b1-rank", "b2-rank", "b3-back", "b4-back", "b5-back"}},
			{ID: "top", Type: "top-k", Params: map[string]any{"k": 50.0}, Inputs: []string{"mix"}},
		},
		Output: "top",
	}
}
