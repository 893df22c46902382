package main

import (
	"context"
	"slices"

	"vmalloc/internal/api"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/timeline"
)

// The traced run replays inputs a round already produced into the
// public functions of the layers below the one the workload drives, so
// every workload reports the online, timeline and energy metrics.

// placedSet is one fleet and reservations on it: vms[k] runs on
// servers[on[k]] over vms[k]'s own interval.
type placedSet struct {
	servers []model.Server
	vms     []model.VM
	on      []int
}

// repeatCalls is how many calls a replay times together when one call
// takes about as long as a clock read.
const repeatCalls = 16

// incrementalSamples bounds the IncrementalCost calls a traced round
// times.
const incrementalSamples = 2000

// statePeak turns a shard's peak /v1/state into a placedSet, each VM
// moved to the start the server gave it.
func statePeak(servers []model.Server, st *api.StateResponse) placedSet {
	s := placedSet{servers: servers}
	for _, pv := range st.VMs {
		v := pv.VM
		v.Start, v.End = pv.Start, pv.Start+pv.VM.End-pv.VM.Start
		s.vms = append(s.vms, v)
		s.on = append(s.on, pv.Server)
	}
	return s
}

// placementSet is an offline placement as a placedSet.
func placementSet(inst model.Instance, placement map[int]int) placedSet {
	idx := make(map[int]int, len(inst.Servers))
	for i, srv := range inst.Servers {
		idx[srv.ID] = i
	}
	s := placedSet{servers: inst.Servers}
	for _, v := range inst.VMs {
		s.vms = append(s.vms, v)
		s.on = append(s.on, idx[placement[v.ID]])
	}
	return s
}

// liveAt keeps the VMs running at minute t.
func (s placedSet) liveAt(t int) placedSet {
	out := placedSet{servers: s.servers}
	for k, v := range s.vms {
		if v.Start <= t && t <= v.End {
			out.vms = append(out.vms, v)
			out.on = append(out.on, s.on[k])
		}
	}
	return out
}

// peakOf returns the first minute at which the most VMs run.
func peakOf(vms []model.VM) int {
	delta := make(map[int]int)
	for _, v := range vms {
		delta[v.Start]++
		delta[v.End+1]--
	}
	minutes := make([]int, 0, len(delta))
	for t := range delta {
		minutes = append(minutes, t)
	}
	slices.Sort(minutes)
	peak, best, live := 0, -1, 0
	for _, t := range minutes {
		live += delta[t]
		if live > best {
			peak, best = t, live
		}
	}
	return peak
}

// byServer groups a set's VMs by server index, in server order.
func (s placedSet) byServer() [][]model.VM {
	per := make([][]model.VM, len(s.servers))
	for k, v := range s.vms {
		per[s.on[k]] = append(per[s.on[k]], v)
	}
	return slices.DeleteFunc(per, func(vms []model.VM) bool { return len(vms) == 0 })
}

// residentsPerServer is the mean number of VMs per server holding any.
func (s placedSet) residentsPerServer() float64 {
	busy := s.byServer()
	if len(busy) == 0 {
		return 0
	}
	return float64(len(s.vms)) / float64(len(busy))
}

// replayLedgers times Add, MaxUsage and Remove on fresh timeline
// ledgers, one per busy server, holding that server's reservations.
func replayLedgers(tr *tracer, sets []placedSet) {
	for _, s := range sets {
		for _, vms := range s.byServer() {
			l := timeline.NewLedger()
			res := make([]timeline.Reservation, len(vms))
			for i, v := range vms {
				res[i] = timeline.Reservation{
					Interval: timeline.Interval{Start: v.Start, End: v.End},
					CPU:      v.Demand.CPU,
					Mem:      v.Demand.Mem,
				}
				tr.timed(layerTimeline, "Ledger.Add", func() { l.Add(v.ID, res[i]) })
			}
			for _, r := range res {
				tr.repeated(layerTimeline, "Ledger.MaxUsage", repeatCalls, func() { l.MaxUsage(r.Interval.Start, r.Interval.End) })
			}
			for _, v := range vms {
				tr.timed(layerTimeline, "Ledger.Remove", func() { l.Remove(v.ID) })
			}
		}
	}
}

// replayIncremental rebuilds every server's energy state from a set's
// reservations and times the Eq. 17 increment of sampled VMs on the next
// busy server after their own.
func replayIncremental(tr *tracer, sets []placedSet) {
	total := 0
	for _, s := range sets {
		total += len(s.vms)
	}
	step := max(total/incrementalSamples, 1)
	for _, s := range sets {
		states := make([]*energy.ServerState, len(s.servers))
		for i, srv := range s.servers {
			states[i] = energy.NewServerState(srv)
		}
		order := make([]int, len(s.vms))
		for k := range order {
			order[k] = k
		}
		slices.SortStableFunc(order, func(a, b int) int { return s.vms[a].Start - s.vms[b].Start })
		for _, k := range order {
			states[s.on[k]].Add(s.vms[k])
		}
		var busy []int
		for i, st := range states {
			if st.VMs() > 0 {
				busy = append(busy, i)
			}
		}
		for k := 0; k < len(s.vms); k += step {
			v := s.vms[k]
			j, _ := slices.BinarySearch(busy, s.on[k])
			st := states[busy[(j+1)%len(busy)]]
			tr.repeated(layerEnergy, "ServerState.IncrementalCost", repeatCalls, func() { st.IncrementalCost(v) })
		}
	}
}

// onlineReplay is what replayOnline saw.
type onlineReplay struct {
	vms, accepted      int
	considered, pruned int
}

// replayOnline admits an instance's VMs in arrival order into a fresh
// online.Fleet as a vmserve shard places them — the feasibility index,
// then the MinCost argmin over the candidates it keeps, then Commit —
// timing the scan and the commit of each VM.
func replayOnline(tr *tracer, inst model.Instance) (onlineReplay, error) {
	fl := online.NewFleet(inst.Servers, idleTimeout)
	fv := fl.View()
	eng := core.NewScanEngine(0, len(inst.Servers))
	defer eng.Close()
	policy := &online.MinCostPolicy{}
	var r onlineReplay
	var buf []int
	for _, v := range online.ArrivalOrder(inst.VMs) {
		fl.AdvanceTo(v.Start)
		r.vms++
		var i int
		var err error
		tr.timed(layerOnline, "scan", func() {
			cands, pruned := fv.Candidates(v, buf[:0])
			buf = cands
			r.considered += len(cands) + pruned
			r.pruned += pruned
			i, err = eng.ArgMinOver(context.Background(), eng.NewStats(), cands,
				func(k int) (float64, bool) { return policy.Score(fv, v, k) })
		})
		if err != nil {
			return r, err
		}
		if i < 0 {
			continue
		}
		tr.timed(layerOnline, "commit", func() { _, err = fl.Commit(i, v) })
		if err != nil {
			return r, err
		}
		r.accepted++
	}
	return r, nil
}
