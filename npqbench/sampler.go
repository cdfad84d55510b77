package main

import (
	"slices"
	"sort"
)

// sampler keeps a uniform subsample of a stream of values in a fixed
// amount of memory: every stride-th value is kept, and when the buffer is
// full every other kept value is dropped and the stride doubles. The kept
// values are exact, so quantiles carry all their digits.
type sampler struct {
	vals   []int64
	stride uint64
	skip   uint64
	n      uint64 // values offered
}

func newSampler(capacity int) *sampler {
	return &sampler{vals: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(v int64) {
	s.n++
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.vals) == cap(s.vals) {
		k := 0
		for i := 0; i < len(s.vals); i += 2 {
			s.vals[k] = s.vals[i]
			k++
		}
		s.vals = s.vals[:k]
		s.stride *= 2
	}
	s.vals = append(s.vals, v)
	s.skip = s.stride - 1
}

// weighted is one kept value standing for weight offered values.
type weighted struct {
	v int64
	w uint64
}

// quantiles merges samplers, weighting each kept value by its sampler's
// stride, and returns the nearest-rank quantile for each q. It returns
// nil when there are no values.
func quantiles(ss []*sampler, qs ...float64) []float64 {
	var all []weighted
	var total uint64
	for _, s := range ss {
		for _, v := range s.vals {
			all = append(all, weighted{v, s.stride})
			total += s.stride
		}
	}
	if total == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	out := make([]float64, len(qs))
	for k, q := range qs {
		rank := uint64(q*float64(total) + 0.5)
		if rank < 1 {
			rank = 1
		}
		var seen uint64
		for _, x := range all {
			seen += x.w
			if seen >= rank {
				out[k] = float64(x.v)
				break
			}
		}
	}
	return out
}

// count returns the number of values offered to ss.
func count(ss []*sampler) uint64 {
	var n uint64
	for _, s := range ss {
		n += s.n
	}
	return n
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
