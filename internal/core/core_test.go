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
// Services lists every service exactly once, starting from plain
// best-effort. overlay's TestCostOrderingMatchesServiceOrder holds the
// cheapest-first order to the cost model.
func TestServicesOrdering(t *testing.T) {
	if len(Services) != 4 {
		t.Fatalf("Services has %d entries", len(Services))
	}
	if Services[0] != ServiceInternet {
		t.Errorf("Services[0] = %v, want internet", Services[0])
	}
	seen := make(map[Service]bool)
	for _, svc := range Services {
		if seen[svc] {
			t.Errorf("duplicate service %v", svc)
		}
		seen[svc] = true
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
