package main

import (
	"math"
	"math/rand"
	"sort"
)

// The benchmark draws every input itself, from the --seed argument, and
// hands the program only the results: which title a viewer asks for
// next, which drive fails, and in which cycle.

// zipfSkew is the popularity skew of title picks: title i (0-based) is
// picked with weight 1/(i+1).
const zipfSkew = 1.0

// picker draws titles from a Zipf(zipfSkew) popularity law.
type picker struct {
	rng    *rand.Rand
	titles []string
	cdf    []float64
}

// newPicker returns a picker whose draws depend only on seed and
// stream: each viewer or engine phase gets its own stream, so adding
// draws to one never shifts another's.
func newPicker(seed int64, stream int, titles []string) *picker {
	p := &picker{rng: rand.New(rand.NewSource(subSeed(seed, stream))), titles: titles}
	total := 0.0
	for i := range titles {
		total += 1 / math.Pow(float64(i+1), zipfSkew)
		p.cdf = append(p.cdf, total)
	}
	for i := range p.cdf {
		p.cdf[i] /= total
	}
	return p
}

func (p *picker) next() string {
	i := sort.SearchFloat64s(p.cdf, p.rng.Float64())
	if i >= len(p.titles) {
		i = len(p.titles) - 1
	}
	return p.titles[i]
}

// failure is one seeded drive failure: the drive, and how many cycles
// into a healthy stretch it fails.
type failure struct {
	Drive, AfterCycles int
}

// failurePlan draws a sequence of failures for a farm of disks drives.
type failurePlan struct {
	rng   *rand.Rand
	disks int
}

func newFailurePlan(seed int64, stream, disks int) *failurePlan {
	return &failurePlan{rng: rand.New(rand.NewSource(subSeed(seed, stream))), disks: disks}
}

// minHealthyCycles and maxHealthyCycles bound the healthy stretch
// before each failure: long enough for the closed loop to refill the
// farm to its admission bound after the previous rebuild.
const minHealthyCycles, maxHealthyCycles = 8, 24

func (f *failurePlan) next() failure {
	return failure{
		Drive:       f.rng.Intn(f.disks),
		AfterCycles: minHealthyCycles + f.rng.Intn(maxHealthyCycles-minHealthyCycles+1),
	}
}

// subSeed derives an independent seed for one input stream (splitmix64
// finaliser over the pair).
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
