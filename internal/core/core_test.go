package core

import "testing"

func TestServiceStrings(t *testing.T) {
	want := map[Service]string{
		ServiceInternet:   "internet",
		ServiceCoding:     "coding",
		ServiceCaching:    "caching",
		ServiceForwarding: "forwarding",
	}
	for svc, name := range want {
		if svc.String() != name {
			t.Errorf("%d.String() = %q, want %q", svc, svc.String(), name)
		}
	}
	if s := Service(9).String(); s != "service(9)" {
		t.Errorf("unknown service string = %q", s)
	}
}

// TestServicesOrdering pins the §3.5 invariant the selection loop walks:
// Services lists every service exactly once, cheapest cloud usage first,
// starting from plain best-effort.
func TestServicesOrdering(t *testing.T) {
	if len(Services) != 4 {
		t.Fatalf("Services has %d entries", len(Services))
	}
	if Services[0] != ServiceInternet {
		t.Errorf("Services[0] = %v, want internet", Services[0])
	}
	seen := make(map[Service]bool)
	for _, alpha := range []float64{0.1, 0.25, 0.5, 0.99} {
		prev := -1.0
		for _, svc := range Services {
			c := svc.CostFactor(alpha)
			if c <= prev && svc != ServiceInternet {
				t.Errorf("alpha=%v: cost not strictly increasing at %v (%v after %v)",
					alpha, svc, c, prev)
			}
			prev = c
		}
	}
	for _, svc := range Services {
		if seen[svc] {
			t.Errorf("duplicate service %v", svc)
		}
		seen[svc] = true
	}
	if Service(200).CostFactor(0.5) != 0 {
		t.Error("unknown service has nonzero cost")
	}
}

func TestPacketIDRoundTrip(t *testing.T) {
	id := PacketID{Flow: 7, Seq: 42}
	if id.String() != "7/42" {
		t.Errorf("PacketID string = %q", id.String())
	}
	// Comparable and usable as a map key.
	m := map[PacketID]int{id: 1}
	if m[PacketID{Flow: 7, Seq: 42}] != 1 {
		t.Error("PacketID not comparable by value")
	}
	if NodeID(3).String() != "node3" {
		t.Errorf("NodeID string = %q", NodeID(3).String())
	}
}

func TestClockFunc(t *testing.T) {
	now := Time(17)
	var c Clock = ClockFunc(func() Time { return now })
	if c.Now() != 17 {
		t.Errorf("ClockFunc.Now = %v", c.Now())
	}
}
