// Package a is a genguard fixture mirroring the kernel's recycled-object
// protocol: instructions live on a free list, generation-stamped links
// (events, waiters, producer pointers) may outlive them, and dereferencing
// a link without a generation check reads a recycled object's state.
package a

type inst struct {
	seq  uint64
	gen  uint32
	done bool
	val  uint64
}

func (d *inst) wake() {}

// event mimics the pipeline event wheel's payload.
type event struct {
	gen uint32
	seq uint64
	//prisim:genlink
	inst *inst
}

// operand mimics srcOperand's producer link.
type operand struct {
	//prisim:genlink
	producer *inst
	pgen     uint32
	ready    bool
}

// producerLive is the guard-method form of the generation check.
//
//prisim:genguard
func (o *operand) producerLive() bool {
	return o.producer != nil && o.producer.gen == o.pgen
}

// process is the sanctioned pattern: compare generations, skip stale.
func process(evs []event) {
	for i := range evs {
		ev := &evs[i]
		d := ev.inst
		if d.gen != ev.gen || d.done {
			continue
		}
		d.val++
		d.wake()
	}
}

// stale reproduces the PR 3 bug shape: dereferencing an event's inst
// without checking the generation reads whatever instruction now occupies
// the recycled slot.
func stale(ev event) uint64 {
	ev.inst.done = true // want `dereference of ev\.inst\.done through recycled link ev\.inst`
	return ev.inst.val  // want `dereference of ev\.inst\.val through recycled link ev\.inst`
}

// staleAlias: the alias is tracked, so hiding the link behind a local
// variable does not evade the check.
func staleAlias(ev event) uint64 {
	d := ev.inst
	return d.val // want `dereference of ev\.inst\.val through recycled link ev\.inst`
}

// guardMethod: a //prisim:genguard call dominates the dereference.
func guardMethod(o *operand, now uint64) {
	if o.producerLive() && !o.producer.done {
		o.producer.val = now
	}
}

// negGuard: the mismatch arm terminates, so the fall-through is guarded.
func negGuard(ev event) {
	if ev.inst.gen != ev.gen {
		return
	}
	ev.inst.done = true
}

// orChain mirrors the scheduler's select loop: the first mismatch test
// short-circuits the || chain, guarding the later operands and the body.
func orChain(evs []event) {
	for i := range evs {
		ev := &evs[i]
		d := ev.inst
		if d.gen != ev.gen || d.done || d.val == 0 {
			continue
		}
		d.wake()
	}
}

// reassigned: writing a new value into the alias kills its guard.
func reassigned(a, b event) {
	d := a.inst
	if d.gen != a.gen {
		return
	}
	d.done = true
	d = b.inst
	d.done = true // want `dereference of b\.inst\.done through recycled link b\.inst`
}

// passing a link along without dereferencing transfers responsibility to
// the callee and is always allowed; so is reading the gen tag itself.
func handoff(ev event) uint32 {
	sink(ev.inst)
	return ev.inst.gen
}

func sink(d *inst) { _ = d }

// ---- struct-of-arrays slot form ----
//
// The slab keeps hot instruction state in parallel arrays indexed by pool
// slot; links are (slot, gen) pairs and the generation lives in the slab's
// gen array. Indexing any slab array by a linked slot is a dereference;
// indexing the gen array is the tag check.

type slab struct {
	gen   []uint32
	flags []uint32
	val   []uint64
}

type pipe struct {
	slab slab
}

// wakeEvent mirrors the event wheel payload in slot form.
type wakeEvent struct {
	gen uint32
	//prisim:genlink
	slot int32
}

// slotOperand mirrors srcOperand: the producer link is a slot index.
type slotOperand struct {
	//prisim:genlink
	producer int32
	pgen     uint32
}

// slotLive is the guard-method form for slot links: the guarded link is an
// argument rather than a receiver field.
//
//prisim:genguard
func (p *pipe) slotLive(o *slotOperand) bool {
	return o.producer >= 0 && p.slab.gen[o.producer] == o.pgen
}

// slabGuarded is the sanctioned pattern: compare the slab's gen entry at
// the linked slot against the frozen tag, skip stale, then touch the other
// arrays freely.
func (p *pipe) slabGuarded(evs []wakeEvent) {
	for i := range evs {
		ev := &evs[i]
		s := ev.slot
		if p.slab.gen[s] != ev.gen || p.slab.flags[s] != 0 {
			continue
		}
		p.slab.val[s]++
	}
}

// slabStale is the slot-reuse regression: the slot may have been recycled
// (generation bumped, slot handed to a younger instruction) since the event
// was posted, so indexing the slab without the gen compare reads whichever
// instruction now owns the slot.
func (p *pipe) slabStale(ev wakeEvent) uint64 {
	p.slab.flags[ev.slot] = 1  // want `slab access p\.slab\.flags\[ev\.slot\] indexed by recycled slot link ev\.slot`
	return p.slab.val[ev.slot] // want `slab access p\.slab\.val\[ev\.slot\] indexed by recycled slot link ev\.slot`
}

// slabStaleAlias: copying the slot into a local does not evade the check.
func (p *pipe) slabStaleAlias(ev wakeEvent) uint64 {
	s := ev.slot
	return p.slab.val[s] // want `slab access p\.slab\.val\[s\] indexed by recycled slot link ev\.slot`
}

// slabNegGuard: the mismatch arm terminates, guarding the fall-through.
func (p *pipe) slabNegGuard(ev wakeEvent) {
	if p.slab.gen[ev.slot] != ev.gen {
		return
	}
	p.slab.val[ev.slot] = 1
}

// slotGuardMethod: a //prisim:genguard call guards the genlink fields of
// its arguments, not just its receiver.
func (p *pipe) slotGuardMethod(o *slotOperand) {
	if p.slotLive(o) {
		p.slab.val[o.producer]++
	}
}

// slotGuardMethodStale: without the guard call the argument's slot link is
// still a recycled reference.
func (p *pipe) slotGuardMethodStale(o *slotOperand) {
	p.slab.val[o.producer]++ // want `slab access p\.slab\.val\[o\.producer\] indexed by recycled slot link o\.producer`
}

// slabTagOnly: reading or comparing the gen array alone is always allowed.
func (p *pipe) slabTagOnly(ev wakeEvent) uint32 {
	return p.slab.gen[ev.slot]
}
