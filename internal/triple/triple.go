// Package triple implements the flexible data model of section 2.2: a
// probabilistic triple store on top of the relational engine. Statements
// are (subject, property, object, p) tuples — "semantic triples no longer
// encode facts, but rather uncertain events" (section 2.3).
//
// Two of the paper's storage decisions are reproduced:
//
//   - data-driven partitioning "by the physical data type of objects":
//     string-, integer- and float-valued triples live in separate base
//     tables (triples_str, triples_int, triples_flt);
//   - on-demand vertical partitioning: per-property selections are plans
//     wrapped in Materialize, so the catalog cache adaptively builds the
//     equivalent of Abadi-style property tables for exactly the
//     properties queries touch.
package triple

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Table names used in the catalog.
const (
	TableStr = "triples_str"
	TableInt = "triples_int"
	TableFlt = "triples_flt"
)

// Column names of every triples table.
const (
	ColSubject  = "subject"
	ColProperty = "property"
	ColObject   = "object"
)

// Triple is one statement. Exactly one of Str/Int/Flt is meaningful,
// selected by Kind.
type Triple struct {
	Subject  string
	Property string
	Obj      Object
	P        float64 // tuple probability; 1.0 for facts
}

// Object is a typed triple object.
type Object struct {
	Kind vector.Kind
	Str  string
	Int  int64
	Flt  float64
}

// String makes a string object.
func String(s string) Object { return Object{Kind: vector.String, Str: s} }

// Int makes an integer object.
func Int(i int64) Object { return Object{Kind: vector.Int64, Int: i} }

// Float makes a float object.
func Float(f float64) Object { return Object{Kind: vector.Float64, Flt: f} }

// Format renders the object value as text.
func (o Object) Format() string {
	switch o.Kind {
	case vector.String:
		return o.Str
	case vector.Int64:
		return strconv.FormatInt(o.Int, 10)
	case vector.Float64:
		return strconv.FormatFloat(o.Flt, 'g', -1, 64)
	default:
		return fmt.Sprintf("?kind=%v", o.Kind)
	}
}

// partition indices into Store.parts.
const (
	partStr = iota
	partInt
	partFlt
	numParts
)

var partTables = [numParts]string{TableStr, TableInt, TableFlt}

// part is the mutable ingest state of one object-type partition: raw
// dictionary codes and typed object values, appended to by live ingest
// and copied into a fresh immutable relation at publish time.
type part struct {
	subj, prop []int32
	objStr     []int32   // string partition only
	objInt     []int64   // int partition only
	objFlt     []float64 // float partition only
	prob       []float64
}

func (p *part) rows() int { return len(p.subj) }

// Store is a loaded triple collection bound to a catalog. The catalog
// holds the published, immutable relations queries read; the store
// additionally keeps the mutable ingest state they were built from — an
// append-only string dictionary shared by all partitions plus raw code
// columns per partition — so live ingest can append and delete rows and
// republish only the partitions that changed (delta segments over the
// frozen base). Mutating methods (Load, Append, Delete, AdoptCatalog)
// must be serialized by the caller — the ingest manager does; readers go
// through the catalog and only ever see fully published relations.
type Store struct {
	cat    *catalog.Catalog
	dict   *vector.Dict
	frozen *vector.FrozenDict // successor view covering every current code
	parts  [numParts]part
}

// NewStore registers empty triples tables in the catalog and returns the
// store.
func NewStore(cat *catalog.Catalog) *Store {
	s := &Store{cat: cat}
	s.Load(nil)
	return s
}

// addRow interns one triple into the mutable state, returning the
// partition it landed in (-1 for an unknown object kind).
func (s *Store) addRow(t Triple) int {
	p := t.P
	if p == 0 {
		p = 1.0
	}
	var pi int
	switch t.Obj.Kind {
	case vector.String:
		pi = partStr
	case vector.Int64:
		pi = partInt
	case vector.Float64:
		pi = partFlt
	default:
		return -1
	}
	// Subjects, properties and string objects all intern into ONE shared
	// dictionary, so every self-join of the store — including traversals
	// matching subjects against objects (graph edges) — hashes and
	// compares int32 codes instead of re-reading string bytes.
	part := &s.parts[pi]
	part.subj = append(part.subj, int32(s.dict.Put(t.Subject)))
	part.prop = append(part.prop, int32(s.dict.Put(t.Property)))
	switch pi {
	case partStr:
		part.objStr = append(part.objStr, int32(s.dict.Put(t.Obj.Str)))
	case partInt:
		part.objInt = append(part.objInt, t.Obj.Int)
	case partFlt:
		part.objFlt = append(part.objFlt, t.Obj.Flt)
	}
	part.prob = append(part.prob, p)
	return pi
}

// freezeIfGrown refreshes the frozen successor dictionary when new
// strings were interned since the last publish. Freeze copies, so codes
// assigned before the freeze keep their meaning in every already
// published relation: the base stays valid next to the delta.
func (s *Store) freezeIfGrown() {
	if s.frozen == nil || s.frozen.Len() != s.dict.Len() {
		s.frozen = s.dict.Freeze()
	}
}

// buildPart copies one partition's mutable state into a fresh immutable
// relation bound to the current frozen dictionary.
func (s *Store) buildPart(pi int) *relation.Relation {
	p := &s.parts[pi]
	var obj relation.Column
	switch pi {
	case partStr:
		obj = relation.Column{Name: ColObject, Vec: vector.FromCodes(s.frozen, append([]int32(nil), p.objStr...))}
	case partInt:
		obj = relation.Column{Name: ColObject, Vec: vector.FromInt64s(append([]int64(nil), p.objInt...))}
	case partFlt:
		obj = relation.Column{Name: ColObject, Vec: vector.FromFloat64s(append([]float64(nil), p.objFlt...))}
	}
	cols := []relation.Column{
		{Name: ColSubject, Vec: vector.FromCodes(s.frozen, append([]int32(nil), p.subj...))},
		{Name: ColProperty, Vec: vector.FromCodes(s.frozen, append([]int32(nil), p.prop...))},
		obj,
	}
	return relation.MustFromColumns(cols, append([]float64(nil), p.prob...))
}

// Load replaces the store contents with the given triples, partitioned by
// object type. The whole materialization cache is invalidated (the
// catalog does this on table replacement).
func (s *Store) Load(triples []Triple) {
	s.dict = vector.NewDict(len(triples) / 4)
	s.frozen = nil
	s.parts = [numParts]part{}
	for _, t := range triples {
		s.addRow(t)
	}
	s.freezeIfGrown()
	for pi := 0; pi < numParts; pi++ {
		s.cat.Put(partTables[pi], s.buildPart(pi))
	}
}

// Append adds triples to the store as a delta over the published base:
// the shared dictionary grows append-only (existing codes stay valid),
// and only the partitions that actually received rows are republished.
// Cache entries over untouched partitions stay resident — the catalog
// invalidates by watermark, not wholesale. Returns the number of rows
// appended and the new ingest watermark (unchanged when triples is
// empty).
func (s *Store) Append(triples []Triple) (int, uint64) {
	changed := map[string]*relation.Relation{}
	appended := 0
	for _, t := range triples {
		if pi := s.addRow(t); pi >= 0 {
			changed[partTables[pi]] = nil
			appended++
		}
	}
	if len(changed) == 0 {
		return 0, s.cat.Watermark()
	}
	s.freezeIfGrown()
	for pi := 0; pi < numParts; pi++ {
		if _, ok := changed[partTables[pi]]; ok {
			changed[partTables[pi]] = s.buildPart(pi)
		}
	}
	return appended, s.cat.PutDeltas(changed)
}

// Delete removes every row matching one of the given (subject, property,
// object) keys — probabilities are not part of the key — and republishes
// only the partitions that lost rows. A key whose strings were never
// interned matches nothing. Returns the number of rows removed and the
// resulting watermark.
func (s *Store) Delete(keys []Triple) (int, uint64) {
	type key struct {
		subj, prop int32
		objStr     int32
		objInt     int64
		objFlt     float64
	}
	byPart := [numParts]map[key]bool{}
	for _, t := range keys {
		sc, ok1 := s.dict.Lookup(t.Subject)
		pc, ok2 := s.dict.Lookup(t.Property)
		if !ok1 || !ok2 {
			continue
		}
		k := key{subj: int32(sc), prop: int32(pc)}
		var pi int
		switch t.Obj.Kind {
		case vector.String:
			oc, ok := s.dict.Lookup(t.Obj.Str)
			if !ok {
				continue
			}
			pi, k.objStr = partStr, int32(oc)
		case vector.Int64:
			pi, k.objInt = partInt, t.Obj.Int
		case vector.Float64:
			pi, k.objFlt = partFlt, t.Obj.Flt
		default:
			continue
		}
		if byPart[pi] == nil {
			byPart[pi] = make(map[key]bool)
		}
		byPart[pi][k] = true
	}
	changed := map[string]*relation.Relation{}
	removed := 0
	for pi := 0; pi < numParts; pi++ {
		if byPart[pi] == nil {
			continue
		}
		p := &s.parts[pi]
		w := 0
		for i := 0; i < p.rows(); i++ {
			k := key{subj: p.subj[i], prop: p.prop[i]}
			switch pi {
			case partStr:
				k.objStr = p.objStr[i]
			case partInt:
				k.objInt = p.objInt[i]
			case partFlt:
				k.objFlt = p.objFlt[i]
			}
			if byPart[pi][k] {
				removed++
				continue
			}
			p.subj[w], p.prop[w], p.prob[w] = p.subj[i], p.prop[i], p.prob[i]
			switch pi {
			case partStr:
				p.objStr[w] = p.objStr[i]
			case partInt:
				p.objInt[w] = p.objInt[i]
			case partFlt:
				p.objFlt[w] = p.objFlt[i]
			}
			w++
		}
		if w < p.rows() {
			p.subj, p.prop, p.prob = p.subj[:w], p.prop[:w], p.prob[:w]
			switch pi {
			case partStr:
				p.objStr = p.objStr[:w]
			case partInt:
				p.objInt = p.objInt[:w]
			case partFlt:
				p.objFlt = p.objFlt[:w]
			}
			changed[partTables[pi]] = nil
		}
	}
	if len(changed) == 0 {
		return 0, s.cat.Watermark()
	}
	s.freezeIfGrown()
	for name := range changed {
		for pi := 0; pi < numParts; pi++ {
			if partTables[pi] == name {
				changed[name] = s.buildPart(pi)
			}
		}
	}
	return removed, s.cat.PutDeltas(changed)
}

// Dump decodes the full store contents back into triples, partition by
// partition in row order — the cold-reload comparison point for recovery
// tests and offline verification.
func (s *Store) Dump() ([]Triple, error) {
	var out []Triple
	for pi := 0; pi < numParts; pi++ {
		rel, err := s.cat.Table(partTables[pi])
		if err != nil {
			return nil, err
		}
		ts, err := decodeTable(rel)
		if err != nil {
			return nil, fmt.Errorf("triple: %s: %w", partTables[pi], err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// AdoptCatalog rebuilds the store's mutable ingest state from whatever
// triples tables the catalog currently holds — the recovery path after a
// snapshot load, where the published relations exist but the raw code
// columns behind them do not. The tables are re-encoded into a fresh
// shared dictionary and republished (legacy snapshots with plain string
// columns adopt fine: decoding falls back to reading strings).
func (s *Store) AdoptCatalog() error {
	triples, err := s.Dump()
	if err != nil {
		return err
	}
	s.Load(triples)
	return nil
}

// decodeTable converts one published triples partition back to triples.
func decodeTable(rel *relation.Relation) ([]Triple, error) {
	subj, err := stringValues(rel, ColSubject)
	if err != nil {
		return nil, err
	}
	prop, err := stringValues(rel, ColProperty)
	if err != nil {
		return nil, err
	}
	objCol, err := rel.ColByName(ColObject)
	if err != nil {
		return nil, err
	}
	prob := rel.Prob()
	out := make([]Triple, rel.NumRows())
	for i := range out {
		out[i] = Triple{Subject: subj[i], Property: prop[i], P: prob[i]}
		switch v := objCol.Vec.(type) {
		case *vector.Int64s:
			out[i].Obj = Int(v.Values()[i])
		case *vector.Float64s:
			out[i].Obj = Float(v.Values()[i])
		default:
			out[i].Obj = String(objCol.Vec.Format(i))
		}
	}
	return out, nil
}

// stringValues reads a column that may be dict-encoded or plain strings.
func stringValues(rel *relation.Relation, name string) ([]string, error) {
	col, err := rel.ColByName(name)
	if err != nil {
		return nil, err
	}
	switch v := col.Vec.(type) {
	case *vector.DictStrings:
		out := make([]string, v.Len())
		for i := range out {
			out[i] = v.At(i)
		}
		return out, nil
	case *vector.Strings:
		return append([]string(nil), v.Values()...), nil
	default:
		return nil, fmt.Errorf("column %q is %T, want strings", name, col.Vec)
	}
}

// Counts reports the number of triples per object-type partition.
func (s *Store) Counts() (str, ints, flts int, err error) {
	for _, spec := range []struct {
		table string
		out   *int
	}{{TableStr, &str}, {TableInt, &ints}, {TableFlt, &flts}} {
		rel, terr := s.cat.Table(spec.table)
		if terr != nil {
			return 0, 0, 0, terr
		}
		*spec.out = rel.NumRows()
	}
	return str, ints, flts, nil
}

// ---------------------------------------------------------------------------
// Plans

// ScanAll returns the plan scanning the string-object partition — the
// "triples" table of the paper's examples (descriptions, categories and
// graph edges are all string-valued).
func ScanAll() engine.Node { return engine.NewScan(TableStr) }

// Property returns the on-demand vertically partitioned plan
// SELECT [property = name] (triples): a materialized (subject, object)
// pair table for one property, the adaptive "cache table" of section 2.2.
func Property(name string) engine.Node {
	sel := engine.NewSelect(ScanAll(),
		expr.Cmp{Op: expr.Eq, L: expr.Column(ColProperty), R: expr.Str(name)})
	proj := engine.NewProject(sel,
		engine.ProjCol{Name: ColSubject, E: expr.Column(ColSubject)},
		engine.ProjCol{Name: ColObject, E: expr.Column(ColObject)},
	)
	return engine.NewMaterialize(proj)
}

// SubjectsOfType returns subjects s with a (s, "type", typeName) triple —
// the strategy entry point "select nodes of type lot" of section 3.
// Output column: subject.
func SubjectsOfType(typeName string) engine.Node {
	sel := engine.NewSelect(ScanAll(), expr.And{
		L: expr.Cmp{Op: expr.Eq, L: expr.Column(ColProperty), R: expr.Str("type")},
		R: expr.Cmp{Op: expr.Eq, L: expr.Column(ColObject), R: expr.Str(typeName)},
	})
	proj := engine.NewProject(sel,
		engine.ProjCol{Name: ColSubject, E: expr.Column(ColSubject)})
	return engine.NewMaterialize(proj)
}

// TraverseForward follows property edges from the subjects of in (column
// "subject"): out.subject = object of the edge whose subject matched.
// Probabilities multiply (JOIN INDEPENDENT), so ranked inputs propagate
// their scores through the graph — the "traverse" block of Figure 3.
func TraverseForward(in engine.Node, property string) engine.Node {
	join := engine.NewHashJoin(in, Property(property),
		[]string{ColSubject}, []string{ColSubject}, engine.JoinIndependent)
	// join output: subject, [in extras...], subject_2, object
	return engine.NewProject(join,
		engine.ProjCol{Name: ColSubject, E: expr.Column(ColObject)})
}

// TraverseBackward follows property edges in reverse: given nodes that
// appear as edge objects, returns the edge subjects. Used by Figure 3's
// final step ("traverses hasAuction backward, to obtain lots again").
func TraverseBackward(in engine.Node, property string) engine.Node {
	join := engine.NewHashJoin(in, Property(property),
		[]string{ColSubject}, []string{ColObject}, engine.JoinIndependent)
	// join output: subject(=auction), ..., subject_2(=lot), object(=auction)
	return engine.NewProject(join,
		engine.ProjCol{Name: ColSubject, E: expr.Column(ColSubject + "_2")})
}

// DocsOf builds the (docID, data) collection for keyword search from the
// given nodes (column "subject") and a text property — the docs view of
// section 2.2/2.3, with p = t1.p · t2.p.
func DocsOf(in engine.Node, textProperty string) engine.Node {
	join := engine.NewHashJoin(in, Property(textProperty),
		[]string{ColSubject}, []string{ColSubject}, engine.JoinIndependent)
	return engine.NewProject(join,
		engine.ProjCol{Name: "docID", E: expr.Column(ColSubject)},
		engine.ProjCol{Name: "data", E: expr.Column(ColObject)},
	)
}

// ---------------------------------------------------------------------------
// TSV loading

// ReadTSV parses triples from tab-separated lines:
//
//	subject <TAB> property <TAB> object [<TAB> probability]
//
// Object values are stored typed: integers and floats are detected
// (data-driven partitioning by physical type); everything else is a
// string. Empty lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader) ([]Triple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var out []Triple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("triple: line %d: want 3 or 4 tab-separated fields, got %d", lineNo, len(fields))
		}
		t := Triple{Subject: fields[0], Property: fields[1], P: 1.0}
		obj := fields[2]
		if i, err := strconv.ParseInt(obj, 10, 64); err == nil {
			t.Obj = Int(i)
		} else if f, err := strconv.ParseFloat(obj, 64); err == nil {
			t.Obj = Float(f)
		} else {
			t.Obj = String(obj)
		}
		if len(fields) == 4 {
			p, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("triple: line %d: bad probability %q", lineNo, fields[3])
			}
			t.P = p
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteTSV emits triples in the ReadTSV format.
func WriteTSV(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if t.P != 1.0 && t.P != 0 {
			if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%g\n", t.Subject, t.Property, t.Obj.Format(), t.P); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", t.Subject, t.Property, t.Obj.Format()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
