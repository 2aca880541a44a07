// Package qsort sorts integers with a parallel divide-and-conquer
// Quicksort (benchmark 3 of the paper): the partition phase is sequential
// and the two recursive calls are spawned as tasks, joined by the finish
// construct — which is itself implemented with promises
// (collections.Finish), exactly as the paper did on the Habanero-Java
// library.
package qsort

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config sizes the sort.
type Config struct {
	N         int
	Seed      int64
	Threshold int // below this size, sort sequentially
}

// Small is the test-sized configuration.
func Small() Config { return Config{N: 20_000, Seed: 1, Threshold: 512} }

// Default is the benchmark configuration.
func Default() Config { return Config{N: 400_000, Seed: 1, Threshold: 1024} }

// Paper is the paper's configuration: one million integers. The paper's
// task count (786,035) implies recursion essentially to singleton leaves;
// a threshold of 8 approximates that task explosion while staying
// schedulable.
func Paper() Config { return Config{N: 1_000_000, Seed: 1, Threshold: 8} }

func input(cfg Config) []int32 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	data := make([]int32, cfg.N)
	for i := range data {
		data[i] = int32(rng.Uint32())
	}
	return data
}

func checksum(data []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range data {
		u := uint32(v)
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// RunSequential computes the reference checksum with the standard library
// sort.
func RunSequential(cfg Config) uint64 {
	data := input(cfg)
	sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
	return checksum(data)
}

// partition performs a sequential Hoare-style partition around a
// median-of-three pivot, returning the split point.
func partition(a []int32) int {
	mid := len(a) / 2
	last := len(a) - 1
	// Median of three to protect against sorted inputs.
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[last] < a[0] {
		a[last], a[0] = a[0], a[last]
	}
	if a[last] < a[mid] {
		a[last], a[mid] = a[mid], a[last]
	}
	pivot := a[mid]
	i, j := 0, last
	for {
		for a[i] < pivot {
			i++
		}
		for a[j] > pivot {
			j--
		}
		if i >= j {
			return j + 1
		}
		a[i], a[j] = a[j], a[i]
		i++
		j--
	}
}

func insertion(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func seqSort(a []int32) {
	for len(a) > 32 {
		m := partition(a)
		if m == 0 || m == len(a) {
			break
		}
		if m < len(a)-m {
			seqSort(a[:m])
			a = a[m:]
		} else {
			seqSort(a[m:])
			a = a[:m]
		}
	}
	insertion(a)
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare validates cfg and generates the input, then returns a one-shot
// body that sorts it in place under its task and returns the checksum of
// the sorted data. Recursive halves run as tasks spawned through one
// finish scope; the root blocks in RunFinish until the whole recursion
// tree has terminated.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	if cfg.Threshold < 2 {
		return nil, fmt.Errorf("qsort: threshold %d too small", cfg.Threshold)
	}
	data := input(cfg)
	return func(t *core.Task) (uint64, error) {
		err := collections.RunFinish(t, func(fs *collections.Finish) error {
			var rec func(t *core.Task, a []int32) error
			rec = func(t *core.Task, a []int32) error {
				if len(a) <= cfg.Threshold {
					seqSort(a)
					return nil
				}
				m := partition(a)
				if m == 0 || m == len(a) {
					seqSort(a)
					return nil
				}
				lo, hi := a[:m], a[m:]
				if _, err := fs.Async(t, func(c *core.Task) error {
					return rec(c, lo)
				}); err != nil {
					return err
				}
				return rec(t, hi)
			}
			return rec(t, data)
		})
		if err != nil {
			return 0, err
		}
		for i := 1; i < len(data); i++ {
			if data[i-1] > data[i] {
				return 0, fmt.Errorf("qsort: not sorted at %d", i)
			}
		}
		return checksum(data), nil
	}, nil
}
