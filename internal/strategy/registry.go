package strategy

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"irdb/internal/engine"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/triple"
)

// Registry holds installed strategies by name, each with its plan
// prepared once per catalog schema epoch on one execution context. It is
// safe for concurrent use.
type Registry struct {
	eng *engine.Ctx
	c   Compiler

	mu     sync.RWMutex
	byName map[string]*Entry
}

// Entry is one installed strategy and its prepared plan.
type Entry struct {
	reg      *Registry
	st       *Strategy
	prepared engine.Prepared[*Prepared]
}

// NewRegistry returns an empty registry whose strategies prepare and run
// on eng, with the default retrieval parameters and the given synonyms.
func NewRegistry(eng *engine.Ctx, synonyms text.SynonymDict) *Registry {
	return &Registry{eng: eng, c: Compiler{Synonyms: synonyms}, byName: map[string]*Entry{}}
}

// Install compiles the strategies and installs each under its name, so a
// bad block parameter fails here rather than at the first search. A
// strategy replacing another under the same name replaces its prepared
// plan too. Nothing is installed when one fails to compile.
func (r *Registry) Install(sts ...*Strategy) error {
	for _, st := range sts {
		if _, err := st.lower(r.c); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range sts {
		r.byName[st.Name] = &Entry{reg: r, st: st}
	}
	return nil
}

// Strategies returns the installed strategies, sorted by name.
func (r *Registry) Strategies() []*Strategy {
	r.mu.RLock()
	out := make([]*Strategy, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e.st)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the installed strategy names, sorted.
func (r *Registry) Names() []string {
	sts := r.Strategies()
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.Name
	}
	return out
}

// Lookup returns the strategy installed under name, or an error that
// lists the installed names.
func (r *Registry) Lookup(name string) (*Entry, error) {
	r.mu.RLock()
	e, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no strategy %q (installed: %v)", name, r.Names())
	}
	return e, nil
}

// Search ranks the strategy's results for query and keeps the top k
// subjects by descending score, ties broken by subject (every subject
// when k ≤ 0), executing under ctx. It binds query into the prepared
// plan, preparing it first when the schema epoch moved since; every
// search entry point runs it, so they all run the same plan, and that
// plan is the one Compile and Optimize make for the query.
func (e *Entry) Search(ctx context.Context, query string, k int) (*relation.Relation, error) {
	prep, err := e.prepared.Get(e.reg.eng, func() (*Prepared, error) {
		return e.st.Prepare(e.reg.eng, &e.reg.c)
	})
	if err != nil {
		return nil, err
	}
	plan, err := prep.Bind(query)
	if err != nil {
		return nil, err
	}
	keys := []engine.SortSpec{{Col: "", Desc: true}, {Col: triple.ColSubject}}
	if k > 0 {
		return e.reg.eng.Exec(ctx, engine.NewTopN(plan, k, keys...))
	}
	return e.reg.eng.Exec(ctx, engine.NewSort(plan, keys...))
}
