package testground

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLoadGoldenValid(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "valid-exec.json"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.Name != "golden-exec" || m.Mode != ModeExec || m.Seed != 99 {
		t.Errorf("identity fields: %q %q %d", m.Name, m.Mode, m.Seed)
	}
	if m.Agents != 4 || m.Slots != 3 || m.SlotSeconds != 120 {
		t.Errorf("shape fields: %d %d %g", m.Agents, m.Slots, m.SlotSeconds)
	}
	if m.Constellation.Planes != 8 || m.Constellation.AltitudeKm != 550 {
		t.Errorf("constellation: %+v", m.Constellation)
	}
	want := []FaultSpec{
		{AtS: 1, Kind: FaultStop, Agent: 2},
		{AtS: 2.5, Kind: FaultCont, Agent: 2},
		{AtS: 4, Kind: FaultKill, Agent: 3},
	}
	if !reflect.DeepEqual(m.Faults, want) {
		t.Errorf("faults = %+v, want %+v", m.Faults, want)
	}
}

func TestLoadGoldenInvalid(t *testing.T) {
	cases := []struct {
		file string
		want string // substring of the error
	}{
		{"invalid-unknown-key.json", "unknown field"},
		{"invalid-fault-kind.json", "unknown exec fault kind"},
		{"invalid-agent-range.json", "out of range"},
		{"invalid-slo.json", "slo"},
		// No such file: JSON is the only plan format, so the extension
		// is refused before the file is read.
		{"plan.toml", "want .json"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			_, err := Load(filepath.Join("testdata", tc.file))
			if err == nil {
				t.Fatalf("Load(%s): wanted an error", tc.file)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFillDefaults pins the documented defaulting rules.
func TestFillDefaults(t *testing.T) {
	m := Manifest{Name: "d"}.FillDefaults()
	if m.Mode != ModeExec {
		t.Errorf("mode = %q, want exec", m.Mode)
	}
	if m.Seed != 42 || m.Agents != 3 || m.Slots != 2 || m.SlotSeconds != 300 {
		t.Errorf("core defaults: %+v", m)
	}
	if m.RunForS != 120 || m.FleetIntervalMS != 200 || m.FleetLagS != 2 || m.FleetSilentS != 5 {
		t.Errorf("exec defaults: %+v", m)
	}
	if m.HoldS != 2 {
		t.Errorf("hold_s with no faults = %g, want 2", m.HoldS)
	}
	if m.SLO != DefaultExecSLO {
		t.Errorf("slo = %q, want DefaultExecSLO", m.SLO)
	}
	c := m.Constellation
	if c.Planes != 16 || c.SatsPerPlane != 16 || c.InclinationDeg != 53 || c.AltitudeKm != 1200 || c.PhasingF != 1 {
		t.Errorf("constellation defaults: %+v", c)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("defaulted manifest must validate: %v", err)
	}
}

// TestFillDefaultsHoldCoversFaults: hold_s stretches past the last fault
// so the staleness ladder can observe it.
func TestFillDefaultsHoldCoversFaults(t *testing.T) {
	m := Manifest{
		Name:   "h",
		Faults: []FaultSpec{{AtS: 4, Kind: FaultKill}, {AtS: 1, Kind: FaultTerm}},
	}.FillDefaults()
	if want := 4 + m.FleetSilentS + 3; m.HoldS != want {
		t.Errorf("hold_s = %g, want %g (last fault + silent + 3)", m.HoldS, want)
	}
}

func TestFillDefaultsVirtual(t *testing.T) {
	m := Manifest{Name: "v", Mode: ModeVirtual}.FillDefaults()
	if m.Scenario != "baseline" {
		t.Errorf("scenario with no faults = %q, want baseline", m.Scenario)
	}
	if m.SLO != "" {
		t.Errorf("virtual slo default = %q, want empty (scenario's spec)", m.SLO)
	}
	custom := Manifest{
		Name: "v2", Mode: ModeVirtual,
		Faults: []FaultSpec{{Kind: "isl_down"}},
	}.FillDefaults()
	if custom.Scenario != "" || custom.Rounds != 3 {
		t.Errorf("composed campaign: scenario=%q rounds=%d, want \"\"/3", custom.Scenario, custom.Rounds)
	}
	if err := custom.Validate(); err != nil {
		t.Errorf("composed campaign must validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Manifest { return Manifest{Name: "x"}.FillDefaults() }
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"no name", func(m *Manifest) { m.Name = "" }, "needs a name"},
		{"bad mode", func(m *Manifest) { m.Mode = "cloud" }, "unknown mode"},
		{"agents low", func(m *Manifest) { m.Agents = 0 }, "agents"},
		{"agents high", func(m *Manifest) { m.Agents = 5000 }, "agents"},
		{"slots", func(m *Manifest) { m.Slots = 0 }, "slots"},
		{"negative fault time", func(m *Manifest) {
			m.Faults = []FaultSpec{{AtS: -1, Kind: FaultKill}}
		}, "at_s"},
		{"bad scenario", func(m *Manifest) {
			m.Mode = ModeVirtual
			m.Scenario = "nope"
		}, "unknown scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(&m)
			err := m.Validate()
			if err == nil {
				t.Fatal("wanted an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
