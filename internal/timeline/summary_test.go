package timeline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// naiveWindowMax computes MaxUsage by brute-force minute scan over the
// reservations — the reference the compiled step function must match.
func naiveWindowMax(entries map[int]Reservation, start, end int) (cpu, mem float64) {
	for t := start; t <= end; t++ {
		var c, m float64
		for _, r := range entries {
			if r.Interval.Start <= t && t <= r.Interval.End {
				c += r.CPU
				m += r.Mem
			}
		}
		if c > cpu {
			cpu = c
		}
		if m > mem {
			mem = m
		}
	}
	return cpu, mem
}

func TestLedgerMaxUsageMatchesNaiveRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger()
		mirror := map[int]Reservation{}
		nextID := 1
		for op := 0; op < 300; op++ {
			switch r := rng.Float64(); {
			case r < 0.55 || len(mirror) == 0:
				start := 1 + rng.Intn(50)
				res := Reservation{
					Interval: Interval{Start: start, End: start + rng.Intn(30)},
					CPU:      float64(1+rng.Intn(8)) / 4,
					Mem:      float64(1+rng.Intn(8)) / 2,
				}
				l.Add(nextID, res)
				mirror[nextID] = res
				nextID++
			case r < 0.8:
				id := randomKey(rng, mirror)
				l.Remove(id)
				delete(mirror, id)
			default:
				id := randomKey(rng, mirror)
				newEnd := rng.Intn(90)
				l.Truncate(id, newEnd)
				if res, ok := mirror[id]; ok {
					if newEnd < res.Interval.Start {
						delete(mirror, id)
					} else if newEnd < res.Interval.End {
						res.Interval.End = newEnd
						mirror[id] = res
					}
				}
			}
			// Probe a handful of windows, including ones that poke out
			// past the busy span on either side.
			for q := 0; q < 5; q++ {
				qs := 1 + rng.Intn(100)
				qe := qs + rng.Intn(40)
				wantCPU, wantMem := naiveWindowMax(mirror, qs, qe)
				gotCPU, gotMem := l.MaxUsage(qs, qe)
				if gotCPU != wantCPU || gotMem != wantMem {
					t.Fatalf("seed %d op %d: MaxUsage(%d,%d) = (%v,%v), naive (%v,%v)",
						seed, op, qs, qe, gotCPU, gotMem, wantCPU, wantMem)
				}
			}
		}
	}
}

func TestLedgerSummaryMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger()
		mirror := map[int]Reservation{}
		for id := 1; id <= 20; id++ {
			start := 1 + rng.Intn(40)
			res := Reservation{
				Interval: Interval{Start: start, End: start + rng.Intn(25)},
				CPU:      float64(1+rng.Intn(8)) / 4,
				Mem:      float64(1+rng.Intn(8)) / 2,
			}
			l.Add(id, res)
			mirror[id] = res
			if id%3 == 0 {
				victim := randomKey(rng, mirror)
				l.Remove(victim)
				delete(mirror, victim)
			}

			sum := l.Summary()
			if len(mirror) == 0 {
				if sum.End >= sum.Start {
					t.Fatalf("seed %d: empty ledger summary %+v", seed, sum)
				}
				continue
			}
			lo, hi := 1<<30, 0
			for _, r := range mirror {
				if r.Interval.Start < lo {
					lo = r.Interval.Start
				}
				if r.Interval.End > hi {
					hi = r.Interval.End
				}
			}
			if sum.Start != lo || sum.End != hi {
				t.Fatalf("seed %d: span [%d,%d], want [%d,%d]", seed, sum.Start, sum.End, lo, hi)
			}
			peakCPU, peakMem := naiveWindowMax(mirror, lo, hi)
			if sum.PeakCPU != peakCPU || sum.PeakMem != peakMem {
				t.Fatalf("seed %d: peak (%v,%v), naive (%v,%v)", seed, sum.PeakCPU, sum.PeakMem, peakCPU, peakMem)
			}
			// Mins: brute-force minute scan of the busy span.
			minCPU, minMem := 1e18, 1e18
			for tt := lo; tt <= hi; tt++ {
				var c, m float64
				for _, r := range mirror {
					if r.Interval.Start <= tt && tt <= r.Interval.End {
						c += r.CPU
						m += r.Mem
					}
				}
				if c < minCPU {
					minCPU = c
				}
				if m < minMem {
					minMem = m
				}
			}
			if sum.MinCPU != minCPU || sum.MinMem != minMem {
				t.Fatalf("seed %d: min (%v,%v), naive (%v,%v)", seed, sum.MinCPU, sum.MinMem, minCPU, minMem)
			}
			// The summary bounds must bracket every window answer.
			for q := 0; q < 10; q++ {
				qs := lo + rng.Intn(hi-lo+1)
				qe := qs + rng.Intn(hi-qs+1)
				cpu, mem := l.MaxUsage(qs, qe)
				if cpu > sum.PeakCPU || mem > sum.PeakMem {
					t.Fatalf("seed %d: window max (%v,%v) above peak (%v,%v)", seed, cpu, mem, sum.PeakCPU, sum.PeakMem)
				}
				if cpu < sum.MinCPU || mem < sum.MinMem {
					t.Fatalf("seed %d: window [%d,%d] ⊆ span but max (%v,%v) below span min (%v,%v)",
						seed, qs, qe, cpu, mem, sum.MinCPU, sum.MinMem)
				}
			}
		}
	}
}

// TestLedgerMaxUsageAllocFree pins the hot-path contract: a compiled
// ledger answers window queries without allocating.
func TestLedgerMaxUsageAllocFree(t *testing.T) {
	l := NewLedger()
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= 32; id++ {
		start := 1 + rng.Intn(100)
		l.Add(id, Reservation{
			Interval: Interval{Start: start, End: start + rng.Intn(50)},
			CPU:      rng.Float64() * 4,
			Mem:      rng.Float64() * 8,
		})
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.MaxUsage(40, 90)
	})
	if allocs != 0 {
		t.Fatalf("MaxUsage allocated %.1f objects per call, want 0", allocs)
	}
}

// TestLedgerMutateAllocFree pins the mutation contract: once a ledger's
// slices have grown to a working size, adding, truncating and removing a
// reservation allocates nothing.
func TestLedgerMutateAllocFree(t *testing.T) {
	l, fresh := ledgerFixture(64, 1)
	mutate := func() {
		l.Add(1000, fresh[0])
		l.Truncate(1000, fresh[0].Interval.Start+fresh[0].Interval.Len()/2)
		l.Remove(1000)
	}
	mutate() // warm-up: grow the slices and the map to size k+1
	if allocs := testing.AllocsPerRun(100, mutate); allocs != 0 {
		t.Fatalf("Add+Truncate+Remove allocated %.1f objects per round, want 0", allocs)
	}
}

// ledgerFixture returns a ledger holding k residents (ids 1..k) and n
// further reservations to mutate it with. Residents overlap heavily, as
// long-lived VMs on a dense host do: each starts in the first 200
// minutes and lasts up to 400.
func ledgerFixture(k, n int) (*Ledger, []Reservation) {
	rng := rand.New(rand.NewSource(int64(k)))
	draw := func() Reservation {
		start := 1 + rng.Intn(200)
		return Reservation{
			Interval: Interval{Start: start, End: start + 1 + rng.Intn(400)},
			CPU:      float64(1 + rng.Intn(4)),
			Mem:      []float64{1.7, 17.1, 34.2, 68.4}[rng.Intn(4)],
		}
	}
	l := NewLedger()
	for id := 1; id <= k; id++ {
		l.Add(id, draw())
	}
	fresh := make([]Reservation, n)
	for i := range fresh {
		fresh[i] = draw()
	}
	return l, fresh
}

// benchLedger times op at ledger sizes k. Rounds alternate an untimed
// setup and a timed op over the same chunk of k/8 (at least 8) fresh
// ids k+1…, so the ledger stays within k and k+k/8 residents.
func benchLedger(b *testing.B, setup, op func(l *Ledger, id int, r Reservation)) {
	for _, k := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			l, fresh := ledgerFixture(k, max(8, k/8))
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(fresh) {
				n := min(len(fresh), b.N-done)
				b.StopTimer()
				for i, r := range fresh[:n] {
					setup(l, k+1+i, r)
				}
				b.StartTimer()
				for i, r := range fresh[:n] {
					op(l, k+1+i, r)
				}
			}
		})
	}
}

func BenchmarkLedgerAdd(b *testing.B) {
	benchLedger(b,
		func(l *Ledger, id int, _ Reservation) { l.Remove(id) },
		func(l *Ledger, id int, r Reservation) { l.Add(id, r) })
}

func BenchmarkLedgerRemove(b *testing.B) {
	benchLedger(b,
		func(l *Ledger, id int, r Reservation) { l.Add(id, r) },
		func(l *Ledger, id int, _ Reservation) { l.Remove(id) })
}

func BenchmarkLedgerTruncate(b *testing.B) {
	benchLedger(b,
		func(l *Ledger, id int, r Reservation) { l.Add(id, r) },
		func(l *Ledger, id int, r Reservation) { l.Truncate(id, r.Interval.Start+r.Interval.Len()/2) })
}

func randomKey(rng *rand.Rand, m map[int]Reservation) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0
	}
	sort.Ints(keys) // deterministic pick regardless of map iteration order
	return keys[rng.Intn(len(keys))]
}
