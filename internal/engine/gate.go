package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"irdb/internal/memory"
)

// Admission.
//
// Every entry point that runs a query — the irdb facade and the HTTP
// server alike — passes through one Gate: an in-flight slot semaphore,
// an admission-wait bound capped by the caller's deadline, a drain that
// refuses new work and waits for admitted work, queue counters, and the
// per-query memory reservation put on the admitted context. Refusals
// carry a typed Cause; each surface maps it to its own answer (503 over
// HTTP, ErrOverloaded/ErrClosed/context errors in the library). The gate
// spawns no goroutines: the drain waits on a channel closed by the last
// admitted unit to leave.

// Cause says why a Gate refused work.
type Cause int

const (
	// CauseDrain: the gate is draining (shutdown or Close) and admits
	// nothing new.
	CauseDrain Cause = iota + 1
	// CauseWait: the admission-wait bound expired before a slot freed.
	CauseWait
	// CauseDeadline: the caller's deadline had already passed, or was
	// shorter than the wait bound and expired before a slot freed.
	CauseDeadline
)

var causeText = [...]string{CauseDrain: "draining", CauseWait: "admission wait expired",
	CauseDeadline: "deadline expired before admission"}

// RefusedError is the error Enter returns when it refuses work. A caller
// whose context is cancelled while it is queued gets the context's error
// instead: that is the caller giving up, not the gate refusing.
type RefusedError struct{ Cause Cause }

func (e *RefusedError) Error() string { return "admission refused: " + causeText[e.Cause] }

// RefusalCause reports whether err (or anything it wraps) is a gate
// refusal, and why.
func RefusalCause(err error) (Cause, bool) {
	var re *RefusedError
	if errors.As(err, &re) {
		return re.Cause, true
	}
	return 0, false
}

// Gate admits queries. The zero value admits everything immediately,
// without a memory reservation; configure it with the Set methods
// before first use.
type Gate struct {
	slots    chan struct{} // in-flight semaphore; nil = unbounded
	wait     time.Duration // admission-wait bound; 0 = the caller's context decides
	pool     *memory.Pool  // nil = ungoverned
	perQuery int64         // per-query budget carved from pool (0 = pool-bounded only)

	// mu orders registration against Drain: once draining is set under
	// mu, active can only fall, and the request that takes it to zero
	// closes idle.
	mu       sync.Mutex
	draining atomic.Bool
	active   int
	idle     chan struct{}

	queueDepth  atomic.Int64
	queuedTotal atomic.Int64
	queueWaitNS atomic.Int64
	refused     [len(causeText)]atomic.Int64 // by Cause
}

// SetMaxInFlight bounds concurrently admitted work; n <= 0 means
// unbounded.
func (g *Gate) SetMaxInFlight(n int) {
	g.slots = nil
	if n > 0 {
		g.slots = make(chan struct{}, n)
	}
}

// SetAdmissionWait bounds how long Enter queues for a slot before
// refusing with CauseWait; d <= 0 queues for as long as the caller's
// context allows.
func (g *Gate) SetAdmissionWait(d time.Duration) { g.wait = d }

// SetMemory governs admitted work: each Enter reserves up to
// perQueryBytes (0 = bounded only by the pool) from a shared pool capped
// at poolBytes (0 = track-only). Both <= 0 leaves work ungoverned.
func (g *Gate) SetMemory(poolBytes, perQueryBytes int64) {
	if poolBytes <= 0 && perQueryBytes <= 0 {
		g.pool, g.perQuery = nil, 0
		return
	}
	g.pool, g.perQuery = memory.NewPool(poolBytes), perQueryBytes
}

// Pool returns the reservation pool (nil when ungoverned).
func (g *Gate) Pool() *memory.Pool { return g.pool }

// QueryBudget returns the per-query byte budget (0 = pool-bounded only).
func (g *Gate) QueryBudget() int64 { return g.perQuery }

// Enter admits one unit of work. On success it returns the context the
// work must run under — ctx plus the work's memory reservation on a
// governed gate — and a release func that returns the reservation and
// the slot; call it exactly once, however the work ends. A full gate
// queues: for as long as the admission wait and ctx's deadline both
// allow, whichever is sooner. Enter fails with a *RefusedError (see
// Cause) or, when ctx is cancelled while queued, with ctx's error.
func (g *Gate) Enter(ctx context.Context) (context.Context, func(), error) {
	leave, err := g.Admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	var res *memory.Reservation
	if g.pool != nil {
		res = g.pool.Reserve(g.perQuery)
		ctx = memory.WithReservation(ctx, res)
	}
	return ctx, func() {
		res.Release()
		leave()
	}, nil
}

// Admit is Enter without the memory reservation, for work that takes a
// slot but runs no query plan (an append, a strategy install). It queues
// and refuses exactly as Enter does; release returns the slot.
func (g *Gate) Admit(ctx context.Context) (release func(), err error) {
	if g.draining.Load() {
		return nil, g.refuse(CauseDrain)
	}
	if err := g.takeSlot(ctx); err != nil {
		return nil, err
	}
	if !g.register() {
		// Drain raced the slot; hand it back.
		g.freeSlot()
		return nil, g.refuse(CauseDrain)
	}
	return func() {
		g.freeSlot()
		g.leave()
	}, nil
}

// Hold registers work that needs neither a slot nor a reservation
// (snapshot I/O) with the drain, so Drain waits for it. It refuses only
// with CauseDrain.
func (g *Gate) Hold() (release func(), err error) {
	if !g.register() {
		return nil, g.refuse(CauseDrain)
	}
	return g.leave, nil
}

// Drain stops admitting work and waits until every admitted unit has
// released, or until ctx ends (returning its error with work still
// running). It may be called again to keep waiting.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining.Load() {
		g.draining.Store(true)
		g.idle = make(chan struct{})
		if g.active == 0 {
			close(g.idle)
		}
	}
	idle := g.idle
	g.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// takeSlot acquires an in-flight slot, queueing (counted in the queue
// depth and wait time) while the semaphore is full.
func (g *Gate) takeSlot(ctx context.Context) error {
	if g.slots == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	g.queuedTotal.Add(1)
	g.queueDepth.Add(1)
	start := time.Now()
	defer func() {
		g.queueDepth.Add(-1)
		g.queueWaitNS.Add(time.Since(start).Nanoseconds())
	}()

	// The effective bound is the admission wait capped by the caller's
	// deadline — waiting longer than the caller will wait is pure waste —
	// so whichever of the two fires first refuses.
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return g.refuse(CauseDeadline)
	}
	var expired <-chan time.Time
	if g.wait > 0 {
		t := time.NewTimer(g.wait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-expired:
		return g.refuse(CauseWait)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return g.refuse(CauseDeadline)
		}
		return ctx.Err()
	}
}

func (g *Gate) freeSlot() {
	if g.slots != nil {
		<-g.slots
	}
}

// register counts the caller as admitted work unless the gate is
// draining.
func (g *Gate) register() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining.Load() {
		return false
	}
	g.active++
	return true
}

func (g *Gate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.active--
	if g.active == 0 && g.draining.Load() {
		close(g.idle)
	}
}

func (g *Gate) refuse(c Cause) error {
	g.refused[c].Add(1)
	return &RefusedError{Cause: c}
}

// GateStats is a point-in-time snapshot of a Gate.
type GateStats struct {
	MaxInFlight   int // 0 = unbounded
	InFlight      int // slots held
	QueueDepth    int64
	QueuedTotal   int64 // units that ever had to queue
	QueueWait     time.Duration
	AdmissionWait time.Duration
	Draining      bool                  // Drain has been called
	Refused       [len(causeText)]int64 // refusals, indexed by Cause
}

// Stats snapshots the gate's configuration and counters.
func (g *Gate) Stats() GateStats {
	st := GateStats{
		MaxInFlight:   cap(g.slots),
		InFlight:      len(g.slots),
		QueueDepth:    g.queueDepth.Load(),
		QueuedTotal:   g.queuedTotal.Load(),
		QueueWait:     time.Duration(g.queueWaitNS.Load()),
		AdmissionWait: g.wait,
		Draining:      g.draining.Load(),
	}
	for c := range g.refused {
		st.Refused[c] = g.refused[c].Load()
	}
	return st
}
