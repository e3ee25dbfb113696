// Package streghint is statsreg-analyzer test fodder for the VRMU hint
// counters: a partially-registered hint stats block must be flagged, so
// adding a hint counter without wiring it into telemetry cannot slip
// past CI.
package streghint

import "github.com/virec/virec/internal/telemetry"

// HintStats mirrors the hint-machinery counters the VRMU exports.
type HintStats struct {
	HintSpillsElided uint64
	DeadVictims      uint64 // want "HintStats.DeadVictims is not registered"
	RematMarks       uint64 // want "HintStats.RematMarks is not registered"
}

func registerHints(reg *telemetry.Registry, prefix string, s *HintStats) {
	reg.Counter(prefix+"/hint_spills_elided", &s.HintSpillsElided)
}
