package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// trailingMean returns, for every index i ≥ w−1, the mean of
// xs[i−w+1..i]; earlier entries are NaN.
func trailingMean(xs []float64, w int) []float64 {
	out := make([]float64, len(xs))
	var s float64
	for i, x := range xs {
		s += x
		if i >= w {
			s -= xs[i-w]
		}
		if i >= w-1 {
			out[i] = s / float64(w)
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// curveDigest is FNV-1a over the bit patterns of a loss curve: equal
// digests mean bit-identical curves.
func curveDigest(curves ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range curves {
		for _, v := range c {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// fmtList renders xs compactly for the report.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
