package engine

import (
	"context"
	"fmt"

	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// Tokenize is the table-valued tokenizer of section 2.1: it turns a
// (docID, data) input into one output row per token occurrence,
// (docID, token, pos), inheriting the document tuple's probability. It is
// the engine equivalent of the paper's
//
//	SELECT ... FROM tokenize( (SELECT docID, data FROM docs) )
//
// WithCompounds additionally emits joined adjacent-pair tokens so
// compound query terms can match (used by the production strategy of
// section 3).
//
// Both string columns of the output are dictionary-encoded: the token
// column always, and the id column when the input's is a plain string
// column (dict-encoded and integer ids are copied as they are). The
// index views built from this output then carry int32 codes, and every
// grouping and join on docID or term runs on them.
type Tokenize struct {
	ident
	Child         Node
	IDCol         string
	DataCol       string
	Tok           text.Tokenizer
	WithCompounds bool
}

// NewTokenize tokenizes child's dataCol per row of idCol; withCompounds
// also emits joined adjacent-pair tokens.
func NewTokenize(child Node, idCol, dataCol string, tok text.Tokenizer, withCompounds bool) *Tokenize {
	h := newHasher("tokenize")
	h.str(idCol)
	h.str(dataCol)
	h.str(tok.Spec())
	h.bool(withCompounds)
	return &Tokenize{ident: h.finish(child), Child: child, IDCol: idCol, DataCol: dataCol, Tok: tok, WithCompounds: withCompounds}
}

// tokenizeChunkRows is how many input rows Tokenize tokenizes between
// cancellation checks.
const tokenizeChunkRows = 8 << 10

// dictEntryBytes is the charge per entry of a vector.Dict: its lookup-map
// slot (as FrozenDict.EstimatedBytes counts it) plus the string header of
// its code-order slice. frozenEntryBytes is the charge per entry of the
// copy Dict.Freeze makes: a string header, a map slot, and an entry each
// in its rank and order arrays.
const (
	dictEntryBytes   = 48 + 16
	frozenEntryBytes = 16 + 48 + 4 + 4
)

// Execute implements Node.
func (t *Tokenize) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, t.Child)
	if err != nil {
		return nil, err
	}
	idCol, err := in.ColByName(t.IDCol)
	if err != nil {
		return nil, err
	}
	dataCol, err := in.ColByName(t.DataCol)
	if err != nil {
		return nil, err
	}
	data, ok := vector.AsStringColumn(dataCol.Vec)
	if !ok {
		return nil, fmt.Errorf("tokenize: data column %q is %v, want string", t.DataCol, dataCol.Vec.Kind())
	}
	n := data.Len()

	// A plain string id column is interned up front, each input row's id
	// once, and its codes are copied per token. Tokens repeat massively
	// (Zipf), so they are interned as they are produced, and every
	// downstream lcase/stem runs once per distinct token. The token dict's
	// presized entries are charged here, each entry past them as it is
	// interned, and its frozen copy before it is made.
	idVec := idCol.Vec
	raw, encodeIDs := idVec.(*vector.Strings)
	presize := min(n, 1024)
	dictBytes, idBytes := int64(presize)*dictEntryBytes, int64(4)
	if encodeIDs {
		// At most one entry per input row, its frozen copy, and a code per
		// input row.
		dictBytes += int64(n) * (dictEntryBytes + frozenEntryBytes + 4)
	} else {
		idBytes = in.ApproxColBytes(in.ColIndex(t.IDCol))
	}
	if err := ctx.charge(c, dictBytes); err != nil {
		return nil, err
	}
	if encodeIDs {
		idVec = vector.EncodeStrings(raw)
	}
	ids := idVec.New(0)
	dict := vector.NewDict(presize)
	var codes []int32
	positions := vector.NewInt64s(0)
	var prob []float64
	inProb := in.Prob()
	// Each row's output is charged as soon as the row is tokenized, before
	// it is appended: counting a whole chunk first would hold the chunk's
	// tokens at once.
	rowBytes := idBytes + 4 + 8 + 8 // id, token code, position, probability
	for lo := 0; lo < n; lo += tokenizeChunkRows {
		if err := c.Err(); err != nil {
			return nil, err
		}
		for row := lo; row < min(lo+tokenizeChunkRows, n); row++ {
			toks := t.Tok.TokensPos(data.StringAt(row))
			if t.WithCompounds {
				toks = text.CompoundVariants(toks)
			}
			if err := ctx.charge(c, int64(len(toks))*rowBytes); err != nil {
				return nil, err
			}
			for _, tok := range toks {
				code, ok := dict.Lookup(tok.Term)
				if !ok {
					if dict.Len() >= presize {
						if err := ctx.charge(c, dictEntryBytes); err != nil {
							return nil, err
						}
					}
					code = dict.Put(tok.Term)
				}
				ids.AppendFrom(idVec, row)
				codes = append(codes, int32(code))
				positions.Append(int64(tok.Pos))
				prob = append(prob, inProb[row])
			}
		}
	}
	if err := ctx.charge(c, int64(dict.Len())*frozenEntryBytes); err != nil {
		return nil, err
	}
	cols := []relation.Column{
		{Name: t.IDCol, Vec: ids},
		{Name: "token", Vec: vector.FromCodes(dict.Freeze(), codes)},
		{Name: "pos", Vec: positions},
	}
	return relation.FromColumns(cols, prob)
}

// Children implements Node.
func (t *Tokenize) Children() []Node { return []Node{t.Child} }

// Label implements Node.
func (t *Tokenize) Label() string { return fmt.Sprintf("Tokenize %s(%s)", t.IDCol, t.DataCol) }
