package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestKillAtCanonicalOrder(t *testing.T) {
	p := KillAt(2.5, 3, 0, 1)
	want := []Event{{Proc: 0, Time: 2.5}, {Proc: 1, Time: 2.5}, {Proc: 3, Time: 2.5}}
	if len(p.Events) != len(want) {
		t.Fatalf("KillAt built %d events, want %d", len(p.Events), len(want))
	}
	for i, e := range p.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if !p.Enabled() {
		t.Error("a plan with events must report Enabled")
	}
	if (Plan{}).Enabled() {
		t.Error("the zero plan must not report Enabled")
	}
}

func TestCanonicalizeSortsByTimeThenProc(t *testing.T) {
	p := Plan{Events: []Event{
		{Proc: 2, Time: 5}, {Proc: 0, Time: 5}, {Proc: 7, Time: 1},
	}}
	got := p.Canonicalize().Events
	want := []Event{{Proc: 7, Time: 1}, {Proc: 0, Time: 5}, {Proc: 2, Time: 5}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("canonical[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Canonicalize must not mutate the receiver's slice.
	if p.Events[0] != (Event{Proc: 2, Time: 5}) {
		t.Error("Canonicalize mutated the original plan")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		plan  Plan
		procs int
		want  string // substring of the error, "" for valid
	}{
		{"empty plan", Plan{}, 0, ""},
		{"one victim of four", KillAt(1, 0), 4, ""},
		{"all but one", KillAt(1, 0, 1, 2), 4, ""},
		{"kills everyone", KillAt(1, 0, 1, 2, 3), 4, "at least one must survive"},
		{"no machine", KillAt(1, 0), 0, "plan for 0 processors"},
		{"victim out of range", KillAt(1, 9), 4, "out of range"},
		{"negative victim", KillAt(1, -1), 4, "out of range"},
		{"negative time", KillAt(-2, 0), 4, "finite non-negative"},
		{"nan time", KillAt(math.NaN(), 0), 4, "finite non-negative"},
		{"inf time", KillAt(math.Inf(1), 0), 4, "finite non-negative"},
		{"double death", Plan{Events: []Event{{Proc: 1, Time: 1}, {Proc: 1, Time: 2}}}, 4, "dies twice"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(tc.procs)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// parse is String's inverse, the round-trip tests' oracle: it reads the
// "p@t[,p@t...]" syntax back into a canonical plan. An empty string is the
// empty plan.
func parse(s string) (Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Plan{}, nil
	}
	var p Plan
	for _, part := range strings.Split(s, ",") {
		proc, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return Plan{}, fmt.Errorf("faults: %q is not proc@time", part)
		}
		pr, err := strconv.Atoi(proc)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad processor in %q: %v", part, err)
		}
		t, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad time in %q: %v", part, err)
		}
		p.Events = append(p.Events, Event{Proc: pr, Time: t})
	}
	return p.Canonicalize(), nil
}

func TestStringParseRoundTrip(t *testing.T) {
	p := Plan{Events: []Event{{Proc: 2, Time: 0.5}, {Proc: 0, Time: 0.125}}}
	s := p.String()
	if s != "0@0.125,2@0.5" {
		t.Fatalf("String = %q, want canonical 0@0.125,2@0.5", s)
	}
	back, err := parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if back.String() != s {
		t.Errorf("round trip %q -> %q", s, back.String())
	}
	if (Plan{}).String() != "" {
		t.Error("empty plan must render as the empty string")
	}
}

func TestParseErrors(t *testing.T) {
	if p, err := parse("  "); err != nil || p.Enabled() {
		t.Errorf("Parse(blank) = (%+v, %v), want empty plan", p, err)
	}
	for _, bad := range []string{"3", "x@1", "1@y", "0@1,,"} {
		if _, err := parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
	// Whitespace around parts is tolerated; order is canonicalized.
	p, err := parse(" 2@3 , 0@1 ")
	if err != nil {
		t.Fatalf("Parse with spaces: %v", err)
	}
	if p.String() != "0@1,2@3" {
		t.Errorf("Parse normalized to %q, want 0@1,2@3", p.String())
	}
}

func TestUnrecoverableErrorMessage(t *testing.T) {
	e := &UnrecoverableError{Algorithm: "static", Proc: 3, Time: 1.25, Reason: "ownership lost"}
	msg := e.Error()
	for _, want := range []string{"static", "processor 3", "t=1.25", "ownership lost"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
