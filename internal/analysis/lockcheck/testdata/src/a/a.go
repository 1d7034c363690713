// Package a is a lockcheck fixture: accesses to "guarded by mu" fields
// with and without the mutex held, across straight-line code, branches,
// defers, closures, and caller-holds-lock helpers.
package a

import "sync"

type server struct {
	mu      sync.Mutex
	jobs    map[string]int // guarded by mu
	running int            // guarded by mu
	done    chan struct{}  // not guarded
}

func (s *server) good(id string) int {
	s.mu.Lock()
	n := s.jobs[id]
	s.running++
	s.mu.Unlock()
	return n
}

func (s *server) deferred(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *server) bad(id string) int {
	return s.jobs[id] // want `access to s\.jobs without holding s\.mu`
}

func (s *server) afterUnlock() {
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	s.running-- // want `access to s\.running without holding s\.mu`
}

// branches: an early-unlock-return leaves the fallthrough path locked.
func (s *server) earlyReturn(id string) int {
	s.mu.Lock()
	if n, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return n
	}
	s.jobs[id] = 1
	s.mu.Unlock()
	return 1
}

// oneArmUnlocks merges branches by intersection: after the if, the lock
// state is uncertain, so the access is flagged.
func (s *server) oneArmUnlocks(flip bool) {
	s.mu.Lock()
	if flip {
		s.mu.Unlock()
	}
	s.running++ // want `access to s\.running without holding s\.mu`
	s.mu.Unlock()
}

// viewLocked's name suffix documents that the caller holds s.mu.
func (s *server) viewLocked() int { return s.running }

// snapshot documents the same contract with the directive form.
//
//prisim:locked mu
func (s *server) snapshot() int { return s.running }

// closures run on unknown schedules: the body starts with no locks held,
// so it must lock for itself even when created under the lock.
func (s *server) spawn() {
	s.mu.Lock()
	go func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()
	go func() {
		s.running-- // want `access to s\.running without holding s\.mu`
	}()
	s.mu.Unlock()
	<-s.done // unguarded field: never flagged
}

// table is generic: accesses through an instantiation are checked against
// the declared field.
type table[K comparable] struct {
	mu *sync.Mutex
	m  map[K]int // guarded by mu
}

func (t *table[K]) good(k K) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

func (t *table[K]) bad(k K) int { return t.m[k] } // want `access to t\.m without holding t\.mu`

func badInstance(t *table[string]) int { return len(t.m) } // want `access to t\.m without holding t\.mu`
