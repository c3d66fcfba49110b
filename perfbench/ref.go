package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// refKernel is a fixed piece of CPU work unrelated to the program —
// sorting, hashing and number formatting over buffers allocated once, so it
// never triggers or waits on a garbage collection. A run times it after
// every round; since it shares the machine with the round before it, its
// time tracks how fast the machine ran then, and dividing by it cancels the
// machine's speed drift (see README.md, "Why the latencies are relative").
type refKernel struct {
	src, buf []int
	m        map[int]int
	out      []byte
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{src: make([]int, 50000), buf: make([]int, 50000), m: make(map[int]int, 25000), out: make([]byte, 0, 1<<18)}
	for i := range k.src {
		k.src[i] = rng.Int()
	}
	return k
}

// run does the work once and returns its wall time.
func (k *refKernel) run() time.Duration {
	t := time.Now()
	k.work()
	return time.Since(t)
}

func (k *refKernel) work() {
	copy(k.buf, k.src)
	sort.Ints(k.buf)
	clear(k.m)
	for i := 0; i < len(k.buf)/2; i++ {
		k.m[k.buf[2*i]] = i
	}
	k.out = k.out[:0]
	for _, v := range k.buf[:20000] {
		k.out = strconv.AppendInt(k.out, int64(v+k.m[v]), 10)
	}
}
