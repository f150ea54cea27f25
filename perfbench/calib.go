package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// refKernelNs is the calibration kernel's wall time on the reference
// machine (2 vCPUs of an Intel Xeon under a VM, Go 1.24). Host timings are
// reported scaled to it: a run that took t ns while the kernel next to it
// took k ns reads t·refKernelNs/k, an estimate of the run's time on the
// reference machine. The constant only fixes the scale of the numbers.
const refKernelNs = 30e6

// kernelPasses is how many passes of the kernel one measurement times,
// back to back. Their total is the measurement: a run shares the cores with
// whatever else runs for its whole length, so the kernel must take the
// average of that contention too, not its quietest moment.
const kernelPasses = 3

// calibrator is a fixed amount of ordinary Go work that uses nothing of the
// program under test: a breadth-first search over a fixed random graph
// (the shape of the shortest-path tree builds), map inserts and lookups,
// and a sort, over a working set larger than the core's caches. The host
// shares its cores with other tenants, so the speed the benchmark gets
// drifts over seconds and minutes; timing this kernel next to every timed
// run measures that speed, and dividing by it removes the drift from the
// host timings while a change in the program still moves them in full.
// The kernel allocates nothing after newCalibrator, so the garbage
// collector does not add its own noise to the measurement.
type calibrator struct {
	adj         [][]int32
	keys        []uint64
	dist, queue []int32
	m           map[uint64]int
	sorted      []uint64
	sum         uint64 // checksum of the first pass; every later pass must match
}

func newCalibrator() *calibrator {
	const nodes, degree, keys = 1 << 16, 4, 1 << 15
	rng := rand.New(rand.NewPCG(1, 2))
	c := &calibrator{
		adj:    make([][]int32, nodes),
		keys:   make([]uint64, keys),
		dist:   make([]int32, nodes),
		queue:  make([]int32, 0, nodes),
		m:      make(map[uint64]int, keys),
		sorted: make([]uint64, keys),
	}
	for u := range c.adj {
		// A ring keeps the graph connected; the other edges are random.
		c.adj[u] = append(c.adj[u], int32((u+1)%nodes), int32((u+nodes-1)%nodes))
		for range degree - 2 {
			c.adj[u] = append(c.adj[u], int32(rng.IntN(nodes)))
		}
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint64()
	}
	return c
}

// measure times kernelPasses passes of the kernel. It fails if a pass
// computed something else than the first pass did.
func (c *calibrator) measure() (time.Duration, error) {
	start := time.Now()
	for range kernelPasses {
		sum := c.pass()
		if c.sum == 0 {
			c.sum = sum
		} else if sum != c.sum {
			return 0, fmt.Errorf("calibration kernel checksum %d, first pass gave %d", sum, c.sum)
		}
	}
	return time.Since(start), nil
}

// pass does the kernel's work once and returns a checksum of its results.
func (c *calibrator) pass() uint64 {
	var sum uint64
	for i := range c.dist {
		c.dist[i] = -1
	}
	c.dist[0] = 0
	q := append(c.queue[:0], 0)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range c.adj[u] {
			if c.dist[v] < 0 {
				c.dist[v] = c.dist[u] + 1
				q = append(q, v)
			}
		}
	}
	for _, d := range c.dist {
		sum += uint64(d)
	}
	clear(c.m)
	for i, k := range c.keys {
		c.m[k%uint64(len(c.keys))] = i
	}
	for _, k := range c.keys {
		sum += uint64(c.m[k%uint64(len(c.keys))])
	}
	copy(c.sorted, c.keys)
	slices.Sort(c.sorted)
	return sum + c.sorted[len(c.sorted)/2]
}
