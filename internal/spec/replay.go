package spec

import (
	"fmt"
	"strings"
	"sync"
)

// Replayer converts a model-checker counterexample trace into a
// deterministic schedule against the real implementation. Each trace
// label is matched by prefix to a binding; bindings run sequentially in
// trace order, each on its actor's dedicated goroutine (so a long-
// running operation — a shootdown, a reclaim sweep, a migration — can
// stop at a parked internal/fault point while later labels drive the
// other actors around it). Unbound labels are skipped: a model step with no
// implementation counterpart (an env decision, a bookkeeping move)
// needs no binding.
//
// This closes the model↔implementation gap: the checker finds the
// interleaving, the Replayer forces the real code through it.
type Replayer struct {
	binds  []replayBind
	actors map[string]*replayActor
	mu     sync.Mutex
	errs   []error
}

type replayBind struct {
	prefix string
	actor  string
	async  bool
	fn     func(label string) error
}

type replayActor struct {
	work chan func()
	done chan struct{}
}

// NewReplayer returns an empty Replayer.
func NewReplayer() *Replayer {
	return &Replayer{actors: map[string]*replayActor{}}
}

// Bind registers fn to run (synchronously, in trace order) on the named
// actor's goroutine for every label beginning with prefix. Later binds
// never shadow earlier ones: the first matching prefix wins.
func (r *Replayer) Bind(prefix, actor string, fn func(label string) error) {
	r.binds = append(r.binds, replayBind{prefix, actor, false, fn})
}

// BindStart is Bind for operations that stop at a parked point: fn
// is dispatched to the actor's goroutine but the replay moves on to the
// next label immediately. Errors surface at Wait.
func (r *Replayer) BindStart(prefix, actor string, fn func(label string) error) {
	r.binds = append(r.binds, replayBind{prefix, actor, true, fn})
}

func (r *Replayer) actor(name string) *replayActor {
	if a, ok := r.actors[name]; ok {
		return a
	}
	a := &replayActor{work: make(chan func(), 64), done: make(chan struct{})}
	r.actors[name] = a
	go func() {
		defer close(a.done)
		for fn := range a.work {
			fn()
		}
	}()
	return a
}

// Run replays the trace: every bound label is dispatched to its actor
// in order. It returns the first error from a synchronous binding;
// asynchronous errors are collected for Wait.
func (r *Replayer) Run(trace []string) error {
	for _, label := range trace {
		b, ok := r.match(label)
		if !ok {
			continue
		}
		a := r.actor(b.actor)
		if b.async {
			lbl := label
			a.work <- func() {
				if err := b.fn(lbl); err != nil {
					r.mu.Lock()
					r.errs = append(r.errs, fmt.Errorf("%s: %w", lbl, err))
					r.mu.Unlock()
				}
			}
			continue
		}
		errc := make(chan error, 1)
		lbl := label
		a.work <- func() { errc <- b.fn(lbl) }
		if err := <-errc; err != nil {
			return fmt.Errorf("%s: %w", lbl, err)
		}
	}
	return nil
}

func (r *Replayer) match(label string) (replayBind, bool) {
	for _, b := range r.binds {
		if strings.HasPrefix(label, b.prefix) {
			return b, true
		}
	}
	return replayBind{}, false
}

// Wait joins every actor goroutine (draining queued asynchronous work)
// and returns the first asynchronous error.
func (r *Replayer) Wait() error {
	for _, a := range r.actors {
		close(a.work)
	}
	for _, a := range r.actors {
		<-a.done
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return r.errs[0]
	}
	return nil
}

// LabelArg extracts the parenthesized argument of a trace label:
// LabelArg("t:alloc(3)") == "3".
func LabelArg(label string) string {
	i := strings.IndexByte(label, '(')
	j := strings.LastIndexByte(label, ')')
	if i < 0 || j <= i {
		return ""
	}
	return label[i+1 : j]
}
