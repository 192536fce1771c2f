package main

import (
	"fmt"
	"regexp"
	"sort"
)

// summary is a sample's median and quartiles, as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so the figures printed here match the ones a reader recomputes
// from the raw values.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

// summarize returns the quartiles of xs. A single sample is its own
// median and quartiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	// Exclusive method, integer arithmetic as in CPython: the i-th cut
	// point interpolates (or, for tiny samples, extrapolates) between the
	// j-th and (j+1)-th sorted values, with j clamped to [1, n-1].
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Q1: q(1), Median: q(2), Q3: q(3)}
}

// spread is the interquartile distance as a share of the median: the
// figure a benchmark's bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func (s summary) String() string {
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  n %d  spread %.1f%%", s.Median, s.Q1, s.Q3, s.N, 100*s.spread())
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric's name and unit fit the result
// format's grammar.
func validMetric(name, unit string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want a letter or digit then at most 63 of [A-Za-z0-9_.-]", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", name, unit)
	}
	return nil
}
