package testground

// End-to-end exec mode: the runner builds the real binaries, launches
// one tinyleo-ctl plus three tinyleo-sat processes over the real TCP
// southbound, kills one agent on schedule, and the scored report must
// show the fault observed (a silent agent) and the SLO rules passing.
// The agents run with default flags, so the test also checks that the
// controller's slot-delta enforcement is applied, not just acked.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/fleet"
)

// buildBinaries compiles tinyleo-ctl and tinyleo-sat into a temp dir.
func buildBinaries(t *testing.T) (ctlBin, satBin string) {
	t.Helper()
	dir := t.TempDir()
	ctlBin = filepath.Join(dir, "tinyleo-ctl")
	satBin = filepath.Join(dir, "tinyleo-sat")
	for bin, pkg := range map[string]string{ctlBin: "repro/cmd/tinyleo-ctl", satBin: "repro/cmd/tinyleo-sat"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return ctlBin, satBin
}

func TestRunExecKillsAgentOnSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	ctlBin, satBin := buildBinaries(t)
	m := Manifest{
		Name:   "e2e",
		Agents: 3,
		Slots:  2,
		Faults: []FaultSpec{{AtS: 1, Kind: FaultKill, Agent: 1}},
		SLO:    "tinyleo_fleet_reports_total>=1,tinyleo_fleet_decode_errors_total<=0,tinyleo_fleet_agents>=3,tinyleo_fleet_agents_silent<=1",
	}.FillDefaults()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dir := t.TempDir()
	rep, err := RunExec(&m, ExecConfig{CtlBin: ctlBin, SatBin: satBin, Dir: dir})
	if err != nil {
		t.Fatalf("RunExec: %v", err)
	}
	if rep.Err != "" {
		t.Fatalf("orchestration error: %s", rep.Err)
	}
	if !rep.Passed || rep.SLOBreached != 0 {
		t.Errorf("run failed its SLO: breached=%d slo=%+v", rep.SLOBreached, rep.SLO)
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != FaultKill || rep.Faults[0].Err != "" {
		t.Errorf("fault records: %+v", rep.Faults)
	}
	if rep.Fleet == nil || rep.Fleet.Agents != 3 {
		t.Fatalf("fleet rollup: %+v", rep.Fleet)
	}
	if got := rep.Fleet.States[string(fleet.StateSilent)]; got != 1 {
		t.Errorf("silent agents = %d, want 1 (the killed one): %+v", got, rep.Fleet)
	}
	if len(rep.Fleet.Silent) != 1 || rep.Fleet.Silent[0] != 1 {
		t.Errorf("silent IDs = %v, want [1]", rep.Fleet.Silent)
	}

	// The run directory holds the promised artifacts.
	view, err := fleet.ReadViewFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatalf("fleet snapshot artifact: %v", err)
	}
	if len(view.Agents) != 3 {
		t.Errorf("snapshot agents = %d", len(view.Agents))
	}
	wantArtifacts := map[string]bool{
		"fleet.json": false, "ctl.log": false, "ctl-flight.jsonl.gz": false,
		"ctl-trace.jsonl": false, "sat-0-flight.jsonl.gz": false,
	}
	for _, a := range rep.Artifacts {
		if _, ok := wantArtifacts[a.Name]; ok {
			wantArtifacts[a.Name] = true
		}
	}
	for name, seen := range wantArtifacts {
		if !seen {
			t.Errorf("artifact %s missing from inventory: %+v", name, rep.Artifacts)
		}
	}

	// An acknowledged command is an applied one: sat 0, the only
	// connected link endpoint of this topology, installs its first slot
	// as a full slot snapshot.
	satLog, err := os.ReadFile(filepath.Join(dir, "sat-0.log"))
	if err != nil {
		t.Fatalf("agent log: %v", err)
	}
	if !strings.Contains(string(satLog), "sat 0: slot snapshot applied") {
		t.Errorf("sat-0.log records no applied slot snapshot:\n%s", satLog)
	}

	// The scored report file exists and reads back.
	if _, err := rep.WriteFile(dir); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := ReadReportFile(filepath.Join(dir, ReportFile))
	if err != nil {
		t.Fatalf("ReadReportFile: %v", err)
	}
	if !back.Passed || back.Plan.Name != "e2e" {
		t.Errorf("report round trip: %+v", back)
	}
}
