package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dgsf/internal/faults"
)

// The shrinker is a delta debugger over fault-plan elements: each scheduled
// event, partition, brownout, storm, and controller kill is one element, and
// each probabilistic rate group (drop, stall, corrupt, fabric) is
// one on/off element. ddmin removes chunks of elements while the reduced
// schedule still reproduces a violation, converging on a locally minimal
// plan — usually one or two faults — that is serialized as a reproducer.

// elemKind enumerates the shrinkable plan elements.
type elemKind int

const (
	elemEvent elemKind = iota
	elemCtrlKill
	elemPartition
	elemBrownout
	elemStorm
	elemDropRate
	elemStallRate
	elemCorruptRate
	elemFabricRate
)

// element addresses one removable piece of a Plan.
type element struct {
	kind elemKind
	idx  int // index within its slice; unused for rate elements
}

// atomize flattens a plan into its removable elements.
func atomize(p faults.Plan) []element {
	var out []element
	for i := range p.Events {
		out = append(out, element{elemEvent, i})
	}
	for i := range p.ControllerKills {
		out = append(out, element{elemCtrlKill, i})
	}
	for i := range p.Partitions {
		out = append(out, element{elemPartition, i})
	}
	for i := range p.Brownouts {
		out = append(out, element{elemBrownout, i})
	}
	for i := range p.ConflictStorms {
		out = append(out, element{elemStorm, i})
	}
	if p.DropRate > 0 {
		out = append(out, element{elemDropRate, 0})
	}
	if p.StallRate > 0 {
		out = append(out, element{elemStallRate, 0})
	}
	if p.CorruptRate > 0 {
		out = append(out, element{elemCorruptRate, 0})
	}
	if p.FabricFaultRate > 0 {
		out = append(out, element{elemFabricRate, 0})
	}
	return out
}

// rebuild assembles the plan containing only the kept elements of the
// original, preserving relative order.
func rebuild(p faults.Plan, keep []element) faults.Plan {
	var out faults.Plan
	for _, el := range keep {
		switch el.kind {
		case elemEvent:
			out.Events = append(out.Events, p.Events[el.idx])
		case elemCtrlKill:
			out.ControllerKills = append(out.ControllerKills, p.ControllerKills[el.idx])
		case elemPartition:
			out.Partitions = append(out.Partitions, p.Partitions[el.idx])
		case elemBrownout:
			out.Brownouts = append(out.Brownouts, p.Brownouts[el.idx])
		case elemStorm:
			out.ConflictStorms = append(out.ConflictStorms, p.ConflictStorms[el.idx])
		case elemDropRate:
			out.DropRate, out.DropAfter = p.DropRate, p.DropAfter
		case elemStallRate:
			out.StallRate, out.StallFor = p.StallRate, p.StallFor
		case elemCorruptRate:
			out.CorruptRate = p.CorruptRate
		case elemFabricRate:
			out.FabricFaultRate = p.FabricFaultRate
		}
	}
	return out
}

// ShrinkStats reports what the shrinker did.
type ShrinkStats struct {
	Runs     int `json:"runs"`     // schedule executions spent shrinking
	From     int `json:"from"`     // elements in the violating schedule
	Elements int `json:"elements"` // elements in the minimal schedule
}

// Shrink reduces a violating schedule to a locally minimal one: the
// returned schedule still fails the oracle, but removing any single chunk
// ddmin tried no longer does. fails must be a deterministic predicate —
// RunSchedule with a fixed seed is.
func Shrink(s Schedule, fails func(Schedule) bool, maxRuns int) (Schedule, ShrinkStats) {
	base := atomize(s.Plan)
	stats := ShrinkStats{From: len(base)}
	if maxRuns <= 0 {
		maxRuns = 64
	}
	with := func(keep []element) Schedule {
		out := s
		out.Plan = rebuild(s.Plan, keep)
		return out
	}
	test := func(keep []element) bool {
		if stats.Runs >= maxRuns {
			return false
		}
		stats.Runs++
		return fails(with(keep))
	}

	keep := base
	// Fast path: many oracle failures are workload bugs, not fault-plan
	// interactions — try the empty plan first.
	if len(keep) > 0 && test(nil) {
		keep = nil
	}
	n := 2
	for len(keep) >= 2 && n <= len(keep) && stats.Runs < maxRuns {
		chunk := (len(keep) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(keep); lo += chunk {
			hi := lo + chunk
			if hi > len(keep) {
				hi = len(keep)
			}
			// Complement: drop [lo,hi), keep the rest.
			rest := append(append([]element{}, keep[:lo]...), keep[hi:]...)
			if len(rest) > 0 && len(rest) < len(keep) && test(rest) {
				keep = rest
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(keep) {
				break
			}
			n = min(n*2, len(keep))
		}
	}
	// Final pass: try dropping each remaining element individually.
	for i := 0; i < len(keep) && stats.Runs < maxRuns; {
		rest := append(append([]element{}, keep[:i]...), keep[i+1:]...)
		if test(rest) {
			keep = rest
		} else {
			i++
		}
	}
	stats.Elements = len(keep)
	return with(keep), stats
}

// Repro is a minimal reproducer, serialized to disk for replay.
type Repro struct {
	Seed       int64       `json:"seed"`
	Trial      int         `json:"trial"`
	Schedule   Schedule    `json:"schedule"`
	Violations []Violation `json:"violations"`
	Shrink     ShrinkStats `json:"shrink"`
}

// WriteRepro serializes a reproducer as
// <dir>/chaos-repro-seed<seed>-trial<trial>.json and returns the path.
func WriteRepro(dir string, r Repro) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-repro-seed%d-trial%d.json", r.Seed, r.Trial))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadRepro loads a reproducer file for replay.
func ReadRepro(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(data, &r)
	return r, err
}
