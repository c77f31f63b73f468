package sim

import (
	"math"
	"time"
)

// Tally accumulates scalar observations (latencies, sizes) and reports
// summary statistics.
type Tally struct {
	n        int64
	sum      float64
	sumSq    float64
	min, max float64
}

// Add records one observation.
func (t *Tally) Add(v float64) {
	if t.n == 0 || v < t.min {
		t.min = v
	}
	if t.n == 0 || v > t.max {
		t.max = v
	}
	t.n++
	t.sum += v
	t.sumSq += v * v
}

// N returns the number of observations.
func (t *Tally) N() int64 { return t.n }

// Sum returns the sum of observations.
func (t *Tally) Sum() float64 { return t.sum }

// Mean returns the arithmetic mean (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Min returns the smallest observation (0 when empty).
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest observation (0 when empty).
func (t *Tally) Max() float64 { return t.max }

// StdDev returns the population standard deviation (0 when empty).
func (t *Tally) StdDev() float64 {
	if t.n == 0 {
		return 0
	}
	m := t.Mean()
	v := t.sumSq/float64(t.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Counter is a monotonically growing count of bytes or operations with a
// rate helper.
type Counter struct {
	total int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.total += n }

// Total returns the accumulated count.
func (c *Counter) Total() int64 { return c.total }

// RatePerSec returns total divided by elapsed (0 when elapsed is 0).
func (c *Counter) RatePerSec(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.total) / elapsed.Seconds()
}
