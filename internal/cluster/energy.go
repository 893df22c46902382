package cluster

import (
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
)

// sampleEnergyLocked records one point of the fleet's energy-over-time
// curve into the configured obs.EnergyRecorder. Callers hold c.mu; every
// mutation path (batch, release, migration, consolidation pass, clock
// advance) samples after it changed the fleet, so the newest sample's
// cumulative total always equals State.TotalEnergy at the same clock.
// Sampling is read-only on the fleet — placements and digests are
// untouched whether the recorder is wired or not.
func (c *Cluster) sampleEnergyLocked() {
	if c.cfg.Energy == nil {
		return
	}
	now := c.fleet.Now()
	b := c.fleet.EnergyAt(now)
	s := obs.EnergySample{
		Clock:                 now,
		RunWattMinutes:        b.Run,
		IdleWattMinutes:       b.Idle,
		TransitionWattMinutes: b.Transition,
		TotalWattMinutes:      b.Total(),
	}
	fv := c.fleet.View()
	classes := map[string]*obs.ClassUsage{}
	for i := 0; i < fv.NumServers(); i++ {
		srv := fv.Server(i)
		key := srv.Type
		if key == "" {
			key = "default"
		}
		cu := classes[key]
		if cu == nil {
			cu = &obs.ClassUsage{}
			classes[key] = cu
		}
		cu.Servers++
		s.Residents += fv.Running(i)
		switch fv.StateOf(i) {
		case online.Active:
			s.Active++
			cu.Active++
			cu.CPUCapacity += srv.Capacity.CPU
			cpu, _ := fv.MaxUsage(i, now, now)
			cu.CPUUsed += cpu
		case online.Waking:
			s.Waking++
		default:
			s.Sleeping++
		}
	}
	s.Classes = make(map[string]obs.ClassUsage, len(classes))
	for key, cu := range classes {
		if cu.CPUCapacity > 0 {
			cu.Utilization = cu.CPUUsed / cu.CPUCapacity
		}
		s.Classes[key] = *cu
	}
	c.cfg.Energy.Record(s)
}
