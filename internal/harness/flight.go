package harness

import (
	"context"
	"errors"
	"sync"
)

// flight is one singleflight slot: its owner computes val while concurrent
// requesters for the same key wait on done. val and err are written before
// done closes and read only after.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

var errOwnerPanicked = errors.New("harness: flight owner panicked")

// flightTable is the singleflight behind both the run cache and the
// snapshot cache. Each cache keeps its own books through the hooks, which
// run with mu (the Runner's shared lock) held.
type flightTable[K comparable, V any] struct {
	mu      *sync.Mutex
	flights map[K]*flight[V] // guarded by mu

	hit  func(v V, waited bool) // a completed flight answered, at once or after a join
	join func()                 // about to wait on another caller's flight
	// landed: the caller's own flight succeeded; resident is false when the
	// table dropped it mid-compute.
	landed func(v V, resident bool)
}

// do returns key's value, computing it at most once across concurrent
// callers: a completed flight answers at once, an in-flight one is joined,
// otherwise the caller owns a new flight. A failed owner evicts its flight,
// so its waiters retry under their own contexts. waiting, if non-nil, runs
// without the lock before the request blocks on any flight.
func (t *flightTable[K, V]) do(ctx context.Context, key K, waiting func(), compute func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		t.mu.Lock()
		f, ok := t.flights[key]
		if !ok {
			f = &flight[V]{done: make(chan struct{})}
			t.flights[key] = f
			t.mu.Unlock()
			if waiting != nil {
				waiting()
			}
			return t.own(key, f, compute)
		}
		select {
		case <-f.done: // failed flights leave the table before done closes
			t.hit(f.val, false)
			t.mu.Unlock()
			return f.val, nil
		default:
		}
		t.join()
		t.mu.Unlock()
		if waiting != nil {
			waiting()
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if f.err != nil {
			continue
		}
		t.mu.Lock()
		t.hit(f.val, true)
		t.mu.Unlock()
		return f.val, nil
	}
}

// own computes the caller's flight and settles it in a defer, so a
// panicking compute still evicts the flight and wakes every waiter before
// the panic carries on up the owner's stack.
func (t *flightTable[K, V]) own(key K, f *flight[V], compute func() (V, error)) (V, error) {
	f.err = errOwnerPanicked // overwritten unless compute panics
	defer func() {
		t.mu.Lock()
		resident := t.flights[key] == f
		if f.err == nil {
			t.landed(f.val, resident)
		} else if resident {
			delete(t.flights, key)
		}
		close(f.done)
		t.mu.Unlock()
	}()
	f.val, f.err = compute()
	return f.val, f.err
}
