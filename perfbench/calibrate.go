package main

import (
	"sync"
	"time"
)

// calNominal is the CPU time calibrate takes on the reference machine.
// Normalised times are CPU times scaled by calNominal / the calibration's
// measured median: what the run would have cost on a machine where the
// calibration takes exactly this long.
const calNominal = 100 * time.Millisecond

var calStream = sync.OnceValue(func() []uint32 {
	s := make([]uint32, 2<<20)
	x := uint64(88172645463325252)
	a := uint32(0)
	for i := range s {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%8 == 0 {
			a = uint32(x>>20) & (1<<22 - 1)
		} else {
			a += 4
		}
		s[i] = a
	}
	return s
})

// calibrate runs a fixed reference computation on the given number of
// goroutines at once and returns the CPU time per goroutine. It models a
// 4-way LRU cache over a fixed address stream, the shape of the
// simulator's hot loop, but shares no code with the program, so no change
// to the program can move it: only the machine can. Its figure is the
// machine's speed at the moment, which drifts on a shared VM by more than
// any useful regression bound. A workload calibrates at its own
// parallelism, because a VM's speed with every CPU busy differs from its
// speed with one.
//
// The computation must never change: it defines the unit of every
// normalised metric.
func calibrate(threads int) time.Duration {
	stream := calStream()
	hits := make([]int, threads)
	var wg sync.WaitGroup
	stop := measure()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			hits[t] = lruModel(stream)
		}(t)
	}
	wg.Wait()
	d := stop().cpu
	calSink = hits
	return d / time.Duration(threads)
}

// lruModel replays stream three times through a 128-set 4-way LRU cache
// and returns the hits.
func lruModel(stream []uint32) int {
	const sets, ways = 128, 4
	var tag, age [sets][ways]uint32
	hits := 0
	for rep := 0; rep < 3; rep++ {
		for i, a := range stream {
			b := a >> 4
			s, t := b%sets, b/sets
			lru, hit := 0, false
			for w := 0; w < ways; w++ {
				if tag[s][w] == t {
					age[s][w] = uint32(i)
					hit = true
					break
				}
				if age[s][w] < age[s][lru] {
					lru = w
				}
			}
			if hit {
				hits++
			} else {
				tag[s][lru], age[s][lru] = t, uint32(i)
			}
		}
	}
	return hits
}

// calSink keeps the calibration's results live.
var calSink []int
