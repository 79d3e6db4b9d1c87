package overlay

import "jqos/internal/core"

// CostModel captures the cloud pricing structure J-QoS exploits (§4.4,
// §6.6): egress (outgoing) bandwidth is charged per GB and ingress is
// free.
type CostModel struct {
	// EgressPerGB is the $/GB price of DC egress bandwidth.
	EgressPerGB float64
}

// DefaultCostModel mirrors the paper's back-of-the-envelope numbers
// (§6.6): a 2-node forwarding overlay moving ~101 GB/hour costs a minimum
// of $17.60/hour in bandwidth, giving ≈$0.087/GB.
var DefaultCostModel = CostModel{
	EgressPerGB: 17.60 / (2 * 101.25),
}

// BandwidthCostPerHour returns the hourly egress bill for a service
// carrying gbPerHour of application traffic. alpha is the coding overhead
// ratio (r, plus s if in-stream is enabled on the cloud path).
//
// Accounting per Figure 2:
//   - forwarding: egress at DC1 (to DC2) and at DC2 (to receiver) → 2c.
//   - caching: egress at DC1; DC2 egress only on loss — charged at
//     lossRate·c (the pull responses).
//   - coding: egress of coded packets at DC1 (α·c) plus — as the paper's
//     upper bound — α·c at DC2 if every coded packet ends up used in a
//     recovery delivery.
//   - internet: no cloud bytes at all.
func (m CostModel) BandwidthCostPerHour(svc core.Service, gbPerHour, alpha, lossRate float64) float64 {
	switch svc {
	case core.ServiceForwarding:
		return 2 * gbPerHour * m.EgressPerGB
	case core.ServiceCaching:
		return (1 + lossRate) * gbPerHour * m.EgressPerGB
	case core.ServiceCoding:
		return 2 * alpha * gbPerHour * m.EgressPerGB
	default:
		return 0
	}
}

// EgressPerAppGB returns the $/GB egress cost of shipping one GB of
// application data through a service — BandwidthCostPerHour at unit
// volume. The tenant cost loop prices each member flow with it, at the
// flow's observed loss, against the tenant contract's ceiling.
func (m CostModel) EgressPerAppGB(svc core.Service, alpha, lossRate float64) float64 {
	return m.BandwidthCostPerHour(svc, 1, alpha, lossRate)
}

// SkypeGBPerUserHour is the paper's per-user data volume for an HD call
// (1.5 Mb/s ≈ 0.675 GB/hour).
const SkypeGBPerUserHour = 0.675

// DeploymentCost reproduces the §6.6 scenario: nUsers concurrent calls
// through a 2-DC overlay, comparing forwarding against coding at the given
// rate. Returns ($/hour forwarding, $/hour coding).
func (m CostModel) DeploymentCost(nUsers int, alpha float64) (fwd, coding float64) {
	gb := float64(nUsers) * SkypeGBPerUserHour
	fwd = m.BandwidthCostPerHour(core.ServiceForwarding, gb, 0, 0)
	coding = m.BandwidthCostPerHour(core.ServiceCoding, gb, alpha, 0)
	return fwd, coding
}
