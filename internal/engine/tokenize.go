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

	// Tokens repeat massively (Zipf), so the token column is interned into
	// a dictionary as it is produced and emitted dict-encoded: every
	// downstream lcase/stem runs once per distinct token and every hash,
	// group and join over terms operates on int32 codes.
	ids := idCol.Vec.New(0)
	dict := vector.NewDict(min(data.Len(), 1024))
	var codes []int32
	positions := vector.NewInt64s(0)
	var prob []float64
	inProb := in.Prob()
	for row := 0; row < data.Len(); row++ {
		toks := t.Tok.TokensPos(data.StringAt(row))
		if t.WithCompounds {
			toks = text.CompoundVariants(toks)
		}
		for _, tok := range toks {
			ids.AppendFrom(idCol.Vec, row)
			codes = append(codes, int32(dict.Put(tok.Term)))
			positions.Append(int64(tok.Pos))
			prob = append(prob, inProb[row])
		}
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
