package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testTestbed is sized for test speed: big enough for a multi-cell intent
// region with redundant gateways, small enough to compile in well under a
// second.
var testTestbed = TestbedConfig{Sats: 144, Slots: 4}

func testCampaign(s Scenario, seed int64) Campaign {
	return Campaign{
		Scenario:         s,
		Seed:             seed,
		Testbed:          testTestbed,
		Flows:            3,
		PacketsPerWindow: 8,
		WindowSec:        1,
	}
}

// detScenario exercises every fault path that matters for determinism:
// topology failure, southbound connection loss, a wedged agent (the
// retransmit → abandon → unreachable pipeline), and a demand surge.
var detScenario = Scenario{
	Name:        "det",
	Rounds:      3,
	Faults:      []FaultKind{FaultISLDown, FaultConnDrop, FaultBlackhole, FaultDemandSurge},
	SurgeFactor: 4,
}

func TestCampaignDeterministic(t *testing.T) {
	var canon [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(testCampaign(detScenario, 42))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical json: %v", err)
		}
		canon = append(canon, b)
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatalf("same seed produced different canonical reports:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			canon[0], canon[1])
	}
}

// Enforcement sends one slot-delta batch per target satellite per round.
// The campaign's canonical report must hash to the digest in testdata,
// recorded from the slot-delta campaign while per-link SetISL
// enforcement still existed beside it, so any change to campaign
// outcomes or wire accounting shows here. Batching must also carry more
// link changes than it sends messages.
func TestCampaignDeltaDeterministic(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "det-seed42.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(testCampaign(detScenario, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical json: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("canonical report digest %s, want %s:\n%s", got, strings.TrimSpace(string(want)), b)
	}
	acked, changes := 0, 0
	for _, rr := range rep.Rounds {
		acked += rr.CommandsAcked
		changes += rr.LinksAdded + rr.LinksRemoved
	}
	if acked == 0 || changes <= acked {
		t.Fatalf("%d acknowledged slot-delta batches applied %d link changes — batching should carry more changes than messages",
			acked, changes)
	}
}

func TestBaselineScenarioHealthy(t *testing.T) {
	s, err := ScenarioByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(testCampaign(s, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsSent == 0 {
		t.Fatal("baseline campaign sent no packets")
	}
	if rep.DeliveryRatio < 0.95 {
		t.Fatalf("baseline delivery ratio %.3f, want >= 0.95", rep.DeliveryRatio)
	}
	if rep.EnforcementRatio != 1 {
		t.Fatalf("baseline enforcement ratio %.3f, want 1.0 (no faults, no commands)", rep.EnforcementRatio)
	}
	if len(rep.SLO) == 0 {
		t.Fatal("campaign not scored against any SLO rule")
	}
	if rep.SLOBreached != 0 {
		t.Fatalf("baseline campaign breached %d SLOs: %+v", rep.SLOBreached, rep.SLO)
	}
	if rep.AckTimeouts != 0 || rep.Retransmits != 0 {
		t.Fatalf("baseline campaign saw ack timeouts %d / retransmits %d, want none",
			rep.AckTimeouts, rep.Retransmits)
	}
}

func TestISLStormRecoversAndRepairs(t *testing.T) {
	s, err := ScenarioByName("isl-storm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(testCampaign(s, 11))
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for _, rr := range rep.Rounds {
		faulted += len(rr.Faults)
	}
	if faulted == 0 {
		t.Fatal("isl-storm campaign injected no faults")
	}
	recoveries := 0
	for _, rr := range rep.Rounds {
		recoveries += len(rr.RecoveryMs)
	}
	if recoveries == 0 && rep.Unrecovered == 0 {
		t.Fatal("no recovery measurements on a faulted campaign")
	}
	if rep.DeliveryRatio <= 0 {
		t.Fatal("no packets delivered under isl-storm")
	}
	// Hard link failures must drive the repair loop southbound.
	cmds := 0
	for _, rr := range rep.Rounds {
		cmds += rr.CommandsSent
	}
	if cmds == 0 {
		t.Fatal("isl-storm campaign pushed no southbound commands")
	}
}

func TestBlackholeMarksUnreachableAndRetransmits(t *testing.T) {
	s := Scenario{
		Name:   "wedge",
		Rounds: 2,
		// ISL failure makes the MPC produce commands; the blackhole wedges
		// an agent so some of them must be retransmitted and abandoned.
		Faults: []FaultKind{FaultISLDown, FaultISLDown, FaultBlackhole},
	}
	rep, err := Run(testCampaign(s, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The blackhole targets the addressed endpoint of a failed link, so the
	// repair command toward it must go through the full retransmit →
	// ack-timeout → unreachable pipeline.
	abandoned := 0
	for _, rr := range rep.Rounds {
		abandoned += rr.CommandsAbandoned
	}
	if abandoned == 0 {
		t.Fatal("wedged agent never had a command abandoned")
	}
	if rep.Retransmits == 0 {
		t.Fatal("commands abandoned without any retransmission attempts")
	}
	if rep.AckTimeouts == 0 {
		t.Fatal("commands abandoned but ack-timeout counter is zero")
	}
	found := false
	for _, ev := range rep.Events {
		if ev.Type == "unreachable" {
			found = true
		}
	}
	if !found {
		t.Fatal("abandoned commands but no unreachable event logged")
	}
	if rep.EnforcementRatio <= 0 {
		t.Fatal("enforcement ratio collapsed to zero")
	}
}

func TestConnDropReconnects(t *testing.T) {
	s := Scenario{Name: "flap", Rounds: 2, Faults: []FaultKind{FaultConnDrop}}
	rep, err := Run(testCampaign(s, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconnects < 2 {
		t.Fatalf("expected >= 2 agent reconnections (one per round), got %d", rep.Reconnects)
	}
	if rep.AckTimeouts != 0 {
		t.Fatalf("conn drops with empty pending tables should not abandon commands, got %d", rep.AckTimeouts)
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) == 0 {
		t.Fatal("no built-in scenarios")
	}
	all := Scenarios()
	if len(all) != len(names) {
		t.Fatalf("ScenarioNames lists %d scenarios, Scenarios holds %d", len(names), len(all))
	}
	for _, n := range names {
		s, err := ScenarioByName(n)
		if err != nil {
			t.Fatalf("built-in scenario %q: %v", n, err)
		}
		if s.Rounds <= 0 {
			t.Fatalf("scenario %q has %d rounds", n, s.Rounds)
		}
	}
	if _, err := ScenarioByName("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario resolved without error")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(vals, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(vals, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("p50 of empty = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Fatalf("p99 of singleton = %v, want 3", got)
	}
}
