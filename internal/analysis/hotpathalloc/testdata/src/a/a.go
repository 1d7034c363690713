// Package a is a hotpathalloc fixture: one annotated function per
// forbidden construct, plus sanctioned patterns that must stay silent.
package a

import "fmt"

type ring struct {
	buf  []uint64
	head int
	any  interface{}
}

//prisim:hotpath
func literals() {
	_ = map[int]int{}           // want `map literal allocates`
	_ = []int{1, 2}             // want `slice literal allocates`
	_ = &ring{}                 // want `&composite literal escapes`
	_ = make([]int, 8)          // want `make allocates`
	_ = new(ring)               // want `new allocates`
	_ = func() int { return 0 } // want `closure in a hot path`
}

//prisim:hotpath
func formatting(v uint64) {
	fmt.Println(v) // want `fmt\.Println allocates`
}

//prisim:hotpath
func freshAppend() []uint64 {
	var out []uint64
	out = append(out, 1) // want `append to out, which starts empty`
	return out
}

//prisim:hotpath
func boxing(r *ring, v uint64) {
	r.any = v     // want `assignment boxes uint64 into an interface`
	sink(v)       // want `argument boxes uint64 into an interface`
	_ = string(b) // want `string/\[\]byte conversion copies`
}

var b []byte

func sink(v any) { _ = v }

// recycled appends into persistent backing and passes pointers: the
// sanctioned hot-path patterns, none flagged.
//
//prisim:hotpath
func recycled(r *ring, v uint64) {
	r.buf = append(r.buf, v)
	r.buf = r.buf[:0]
	r.any = r // pointers box without allocating
	if v > 1<<40 {
		panic("implausible") // cold failure path: arguments exempt
	}
}

// unannotated may allocate freely.
func unannotated() []uint64 {
	out := make([]uint64, 0, 8)
	return append(out, 1)
}
