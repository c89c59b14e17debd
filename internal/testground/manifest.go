package testground

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/obs/flightrec"
)

// Run modes.
const (
	// ModeExec launches one real tinyleo-ctl and N real tinyleo-sat
	// processes over the real TCP southbound, coordinated through the
	// sync service, with faults injected by signaling the processes.
	ModeExec = "exec"
	// ModeVirtual drives the same plan through the in-process chaos
	// engine on a virtual clock: same manifest + seed → byte-identical
	// scored report.
	ModeVirtual = "virtual"
)

// Exec-mode fault kinds (process signals). Virtual-mode manifests use
// the chaos engine's fault kinds (isl_down, flap_storm, sat_crash,
// conn_drop, blackhole, demand_surge) instead.
const (
	// FaultKill SIGKILLs the target agent process: no flush, no goodbye —
	// the controller's staleness ladder is the only witness.
	FaultKill = "kill"
	// FaultTerm SIGTERMs the target agent: a graceful shutdown that still
	// flushes its flight recording and trace.
	FaultTerm = "term"
	// FaultStop SIGSTOPs the target agent: the process wedges (stops
	// reporting and acking) but its TCP session stays open.
	FaultStop = "stop"
	// FaultCont SIGCONTs a previously stopped agent, resuming it.
	FaultCont = "cont"
)

// DefaultExecSLO scores an exec-mode run that declares no slo: every
// agent reported at least once and nothing on the wire was malformed.
const DefaultExecSLO = "tinyleo_fleet_reports_total>=1,tinyleo_fleet_decode_errors_total<=0"

// Constellation sizes the Walker constellation the controller compiles
// against (exec mode). Zero values take the defaults.
type Constellation struct {
	// Planes / SatsPerPlane shape the Walker grid (default 16×16).
	Planes       int `json:"planes,omitempty"`
	SatsPerPlane int `json:"sats_per_plane,omitempty"`
	// InclinationDeg / AltitudeKm set the shell (defaults 53°, 1200 km).
	InclinationDeg float64 `json:"inclination_deg,omitempty"`
	AltitudeKm     float64 `json:"altitude_km,omitempty"`
	// PhasingF is the Walker phasing factor (default 1).
	PhasingF int `json:"phasing_f,omitempty"`
}

// FaultSpec schedules one fault.
type FaultSpec struct {
	// AtS is when to inject, in seconds after every agent has passed the
	// start barrier (exec mode only; the virtual-mode engine schedules
	// its own rounds).
	AtS float64 `json:"at_s,omitempty"`
	// Kind is the fault: an exec signal kind (kill, term, stop, cont) or
	// a chaos fault kind in virtual mode.
	Kind string `json:"kind"`
	// Agent is the target agent index (exec mode; ignored in virtual
	// mode, where the engine draws targets from the seeded RNG).
	Agent int `json:"agent,omitempty"`
}

// Manifest is a declarative test plan: what to launch, how big, what to
// break when, and what "good" means. Zero fields take defaults
// (FillDefaults documents each); Validate rejects what cannot run.
type Manifest struct {
	// Name identifies the plan in reports and run directories (required).
	Name string `json:"name"`
	// Mode is ModeExec (default) or ModeVirtual.
	Mode string `json:"mode,omitempty"`
	// Seed drives every seeded choice. In virtual mode, same manifest +
	// seed → byte-identical scored report.
	Seed int64 `json:"seed,omitempty"`

	// Agents is the satellite agent count (default 3).
	Agents int `json:"agents,omitempty"`
	// Slots is the control slots the controller compiles and enforces
	// (default 2).
	Slots int `json:"slots,omitempty"`
	// SlotSeconds is the control slot duration in orbital seconds
	// (default 300).
	SlotSeconds float64 `json:"slot_seconds,omitempty"`

	// Exec-mode process knobs.
	//
	// RunForS is how long each agent process stays up if not signaled
	// (default 120; the runner terminates survivors once the controller
	// exits).
	RunForS float64 `json:"run_for_s,omitempty"`
	// HoldS keeps the controller alive after its last slot so the fleet
	// staleness ladder can observe scheduled faults (default: last fault
	// time + FleetSilentS + 3, or 2 with no faults).
	HoldS float64 `json:"hold_s,omitempty"`
	// FleetIntervalMS is the agents' telemetry report interval
	// (default 200).
	FleetIntervalMS int `json:"fleet_interval_ms,omitempty"`
	// FleetLagS / FleetSilentS are the controller's staleness thresholds
	// (defaults 2 and 5 — tighter than interactive defaults so short
	// campaigns still walk the ladder).
	FleetLagS    float64 `json:"fleet_lag_s,omitempty"`
	FleetSilentS float64 `json:"fleet_silent_s,omitempty"`

	// Constellation sizes the compiled Walker shell (exec mode).
	Constellation Constellation `json:"constellation,omitempty"`

	// Faults is the fault schedule (exec) or the per-round fault pool
	// (virtual, kinds only).
	Faults []FaultSpec `json:"faults,omitempty"`
	// SLO is the flightrec rule spec the run is scored with (defaults:
	// DefaultExecSLO in exec mode, the scenario's spec in virtual mode).
	SLO string `json:"slo,omitempty"`

	// Virtual-mode campaign knobs.
	//
	// Scenario names a built-in chaos scenario; empty composes one from
	// Faults (or "baseline" if no faults are listed).
	Scenario string `json:"scenario,omitempty"`
	// Rounds overrides the scenario's fault→measure→repair cycles.
	Rounds int `json:"rounds,omitempty"`
	// SurgeFactor multiplies per-flow load during demand surges (≥2).
	SurgeFactor int `json:"surge_factor,omitempty"`
	// Sats sizes the virtual testbed constellation (default 256).
	Sats int `json:"sats,omitempty"`
	// CellDeg is the virtual testbed's geographic cell size (default 10).
	CellDeg float64 `json:"cell_deg,omitempty"`
	// Flows / PacketsPerWindow / WindowS shape the measured load (chaos
	// engine defaults: 4, 16, 2).
	Flows            int     `json:"flows,omitempty"`
	PacketsPerWindow int     `json:"packets_per_window,omitempty"`
	WindowS          float64 `json:"window_s,omitempty"`
}

// FillDefaults returns a copy with every zero field defaulted. The
// defaulting rules are part of the manifest contract and golden-tested.
func (m Manifest) FillDefaults() Manifest {
	if m.Mode == "" {
		m.Mode = ModeExec
	}
	if m.Seed == 0 {
		m.Seed = 42
	}
	if m.Agents == 0 {
		m.Agents = 3
	}
	if m.Slots == 0 {
		m.Slots = 2
	}
	if m.SlotSeconds == 0 {
		m.SlotSeconds = 300
	}
	if m.RunForS == 0 {
		m.RunForS = 120
	}
	if m.FleetIntervalMS == 0 {
		m.FleetIntervalMS = 200
	}
	if m.FleetLagS == 0 {
		m.FleetLagS = 2
	}
	if m.FleetSilentS == 0 {
		m.FleetSilentS = 5
	}
	if m.HoldS == 0 {
		m.HoldS = 2
		if last := m.lastFaultAt(); last >= 0 {
			m.HoldS = last + m.FleetSilentS + 3
		}
	}
	c := &m.Constellation
	if c.Planes == 0 {
		c.Planes = 16
	}
	if c.SatsPerPlane == 0 {
		c.SatsPerPlane = 16
	}
	if c.InclinationDeg == 0 {
		c.InclinationDeg = 53
	}
	if c.AltitudeKm == 0 {
		c.AltitudeKm = 1200
	}
	if c.PhasingF == 0 {
		c.PhasingF = 1
	}
	if m.SLO == "" && m.Mode == ModeExec {
		m.SLO = DefaultExecSLO
	}
	if m.Mode == ModeVirtual {
		if m.Scenario == "" && len(m.Faults) == 0 {
			m.Scenario = "baseline"
		}
		if m.Rounds == 0 && m.Scenario == "" {
			m.Rounds = 3
		}
	}
	return m
}

// lastFaultAt returns the latest scheduled fault time, or -1 with no
// faults.
func (m *Manifest) lastFaultAt() float64 {
	last := -1.0
	for _, f := range m.Faults {
		if f.AtS > last {
			last = f.AtS
		}
	}
	return last
}

// execFaultKinds is the exec-mode signal vocabulary.
var execFaultKinds = map[string]bool{
	FaultKill: true, FaultTerm: true, FaultStop: true, FaultCont: true,
}

// virtualFaultKinds is the chaos engine's vocabulary.
var virtualFaultKinds = map[string]bool{
	string(chaos.FaultISLDown):     true,
	string(chaos.FaultFlapStorm):   true,
	string(chaos.FaultSatCrash):    true,
	string(chaos.FaultConnDrop):    true,
	string(chaos.FaultBlackhole):   true,
	string(chaos.FaultDemandSurge): true,
}

// kindList renders a kind set for error messages, sorted.
func kindList(kinds map[string]bool) string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// Validate checks a defaulted manifest. Call FillDefaults first (Load
// does both).
func (m *Manifest) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("testground: manifest needs a name")
	}
	if m.Mode != ModeExec && m.Mode != ModeVirtual {
		return fmt.Errorf("testground: manifest %q: unknown mode %q (want %s or %s)", m.Name, m.Mode, ModeExec, ModeVirtual)
	}
	if m.Agents < 1 || m.Agents > 1024 {
		return fmt.Errorf("testground: manifest %q: agents = %d out of range [1, 1024]", m.Name, m.Agents)
	}
	if m.Slots < 1 {
		return fmt.Errorf("testground: manifest %q: slots = %d, want >= 1", m.Name, m.Slots)
	}
	if m.SlotSeconds <= 0 {
		return fmt.Errorf("testground: manifest %q: slot_seconds = %g, want > 0", m.Name, m.SlotSeconds)
	}
	for i, f := range m.Faults {
		switch m.Mode {
		case ModeExec:
			if !execFaultKinds[f.Kind] {
				return fmt.Errorf("testground: manifest %q: fault %d: unknown exec fault kind %q (want %s)",
					m.Name, i, f.Kind, kindList(execFaultKinds))
			}
			if f.AtS < 0 {
				return fmt.Errorf("testground: manifest %q: fault %d: at_s = %g, want >= 0", m.Name, i, f.AtS)
			}
			if f.Agent < 0 || f.Agent >= m.Agents {
				return fmt.Errorf("testground: manifest %q: fault %d: agent %d out of range [0, %d)",
					m.Name, i, f.Agent, m.Agents)
			}
		case ModeVirtual:
			if !virtualFaultKinds[f.Kind] {
				return fmt.Errorf("testground: manifest %q: fault %d: unknown chaos fault kind %q (want %s)",
					m.Name, i, f.Kind, kindList(virtualFaultKinds))
			}
		}
	}
	if m.Mode == ModeVirtual && m.Scenario != "" {
		if _, err := chaos.ScenarioByName(m.Scenario); err != nil {
			return fmt.Errorf("testground: manifest %q: %v", m.Name, err)
		}
	}
	if m.SLO != "" {
		if _, err := flightrec.ParseRules(m.SLO); err != nil {
			return fmt.Errorf("testground: manifest %q: slo: %v", m.Name, err)
		}
	}
	return nil
}

// Parse decodes a JSON manifest. Unknown keys are errors, so typos fail
// loudly instead of silently running a default.
func Parse(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("testground: manifest: %v", err)
	}
	return &m, nil
}

// Load reads, defaults, and validates a .json manifest file.
func Load(path string) (*Manifest, error) {
	if ext := filepath.Ext(path); ext != ".json" {
		return nil, fmt.Errorf("testground: %s: unknown manifest extension %q (want .json)", path, ext)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	filled := m.FillDefaults()
	if err := filled.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &filled, nil
}
