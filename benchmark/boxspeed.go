package main

import (
	"math/rand"
	"sort"
	"time"
)

// The box the bounds were measured on is shared, and its speed is not
// constant: for minutes at a time both vCPUs execute the same code
// 20–40 % slower (no steal time is reported; a neighbour is evicting
// the cache). Every timing of the fleet moves with it. So that a slow
// phase of the box is not mistaken for a slow commit, each round also
// times a fixed piece of work that no change to the repository can
// touch, and reports it beside the metrics. The metrics themselves are
// never corrected by it: one number cannot say how much a join and a
// window query each suffer from the same neighbour.

// kernelReps is how often the kernel runs on each side of a measured
// window; the fastest run counts, since interference only slows it.
const kernelReps = 20

// boxKernel is the fixed work: sort 8 Ki floats, then chase pointers
// through a 4 MiB table that fits the last-level cache only while
// nobody else is using it. It uses the standard library alone.
type boxKernel struct {
	values  []float64
	scratch []float64
	next    []int32
	sink    int32
}

func newBoxKernel() *boxKernel {
	rng := rand.New(rand.NewSource(1))
	k := &boxKernel{values: make([]float64, 1<<13), scratch: make([]float64, 1<<13), next: make([]int32, 1<<20)}
	for i := range k.values {
		k.values[i] = rng.Float64()
	}
	for i, p := range rng.Perm(len(k.next)) {
		k.next[i] = int32(p)
	}
	return k
}

// bestMS runs the kernel kernelReps times and returns the fastest run
// in milliseconds (about 3.7 on the baseline box when it is quiet).
func (k *boxKernel) bestMS() float64 {
	best := 0.0
	for i := range kernelReps {
		start := time.Now()
		copy(k.scratch, k.values)
		sort.Float64s(k.scratch)
		j := int32(0)
		for range len(k.next) / 8 {
			j = k.next[j]
		}
		k.sink += j // keeps the chase from being optimised away
		if ms := float64(time.Since(start)) / 1e6; i == 0 || ms < best {
			best = ms
		}
	}
	return best
}
