package main

import "math/rand"

// rngFor returns a generator that is a pure function of (seed, stream, i),
// so op i of a workload is the same whichever ops ran before it.
func rngFor(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed) ^ splitmix(stream^splitmix(i))))))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deck deals a catalog of n entries in seeded random order, reshuffled every
// n draws: every window of n consecutive draws covers the catalog exactly
// once, so a run's mix stays close to the catalog's whatever its length.
type deck struct {
	seed   int64
	stream uint64
	n      int
	cur    int64 // index of the cached shuffle
	perm   []int
}

func newDeck(seed int64, stream uint64, n int) *deck {
	return &deck{seed: seed, stream: stream, n: n, cur: -1}
}

// at returns the catalog index dealt at draw i.
func (d *deck) at(i int64) int {
	k := i / int64(d.n)
	if k != d.cur {
		d.perm = rngFor(d.seed, d.stream, uint64(k)).Perm(d.n)
		d.cur = k
	}
	return d.perm[i%int64(d.n)]
}
