package main

// counts.go reads the exact counts (source C of the per-layer ledger)
// from the public accessors of the root package: engine Stats() on every
// DC, receiver Stats() on every host, and the Snapshot. Cumulative
// counters are taken as deltas over the timed region plus drain, gauges at
// the end of the last round.

type ctr int

const (
	cEncData ctr = iota
	cEncDataBytes
	cEncCodedBytes
	cEncCoded
	cRecCodedStored
	cRecNACKs
	cRecCoopStarted
	cRecCoopRecovered
	cCachePuts
	cCacheHits
	cCacheMisses
	cFwdCopies
	cFwdNoRoute
	cFwdOldEpoch
	cRxData
	cRxDuplicates
	cRxNACKs
	cRxRecovered
	cRxLosses
	cRxGaveUp
	cSchedEnq
	cSchedDrop
	cLinkPackets
	cAdmissionDrops
	cContractPackets
	cTenantPackets
	cQuotaDrops
	cFlowSignals
	cRateCuts
	cRateRecoveries
	cRecomputes
	cIncremental
	cReroutes
	cTraceEvents
	cSpansFinished
	numCtrs
)

type counters [numCtrs]uint64

// receiverCounts adds one flow's receiver-side counters (zero once the
// flow is closed and its receiver freed, hence closeOldest banks them).
func (r *runner) receiverCounts(c *counters, fs *flowState) {
	rx := r.d.Host(fs.dst).Receiver(fs.f.ID())
	if rx == nil {
		return
	}
	st := rx.Stats()
	c[cRxData] += st.DataReceived
	c[cRxDuplicates] += st.Duplicates
	c[cRxNACKs] += st.NACKsSent()
	c[cRxRecovered] += st.Recovered
	c[cRxLosses] += st.LossesSeen
	c[cRxGaveUp] += st.GaveUp
}

// readCounters returns every cumulative counter at this instant.
func (r *runner) readCounters(snap *jqosSnapshot) counters {
	c := r.closed
	for _, id := range r.dcs {
		dc := r.d.DC(id)
		es := dc.Encoder().Stats()
		c[cEncData] += es.DataPackets
		c[cEncDataBytes] += es.DataBytes
		c[cEncCodedBytes] += es.CodedBytes
		c[cEncCoded] += es.CrossCoded + es.InCoded
		rs := dc.Recoverer().Stats()
		c[cRecCodedStored] += rs.CodedStored
		c[cRecNACKs] += rs.NACKs
		c[cRecCoopStarted] += rs.CoopStarted
		c[cRecCoopRecovered] += rs.CoopRecovered
		cs := dc.Cache().Stats()
		c[cCachePuts] += cs.Puts
		c[cCacheHits] += cs.Hits
		c[cCacheMisses] += cs.Misses
		fs := dc.Forwarder().Stats()
		c[cFwdCopies] += fs.Copies
		c[cFwdNoRoute] += fs.NoRoute
		c[cFwdOldEpoch] += fs.OldEpochResolves
	}
	for _, fs := range r.live {
		r.receiverCounts(&c, fs)
		c[cAdmissionDrops] += fs.f.Metrics().AdmissionDropped
		if fs.contract {
			c[cContractPackets] += fs.sent
		}
		if fs.tenant {
			c[cTenantPackets] += fs.sent
		}
	}
	for i := range snap.Queues {
		for _, pc := range snap.Queues[i].PerClass {
			c[cSchedEnq] += pc.EnqueuedPackets
			c[cSchedDrop] += pc.DroppedPackets
		}
	}
	for i := range snap.Links {
		c[cLinkPackets] += snap.Links[i].AB.Packets + snap.Links[i].BA.Packets
	}
	for i := range snap.Tenants {
		c[cQuotaDrops] += snap.Tenants[i].QuotaDropped
	}
	c[cFlowSignals] = snap.Feedback.FlowSignals
	c[cRateCuts] = snap.Feedback.RateCuts + snap.Feedback.TenantCuts
	c[cRateRecoveries] = snap.Feedback.RateRecoveries + snap.Feedback.TenantRecoveries
	c[cRecomputes] = snap.Routing.Recomputes
	c[cIncremental] = snap.Routing.IncrementalRecomputes
	c[cReroutes] = snap.Routing.Reroutes
	c[cTraceEvents] = snap.Trace.Recorded
	c[cSpansFinished] = snap.Attribution.Finished
	return c
}

// gauges reads the live depths the isolated drivers are shaped by.
func (r *runner) gauges(res *result) {
	var batches, items int
	for _, id := range r.dcs {
		batches += r.d.DC(id).Recoverer().Batches()
		items += r.d.DC(id).Cache().Len()
	}
	res.Counts["coding.recoverer_batches_live"] = float64(batches)
	res.Counts["cache.live_items"] = float64(items)
	res.Counts["sched.queued_bytes_max"] = float64(r.queuedMax)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// deriveCounts turns the counter deltas into the named C metrics. pkts is
// the number of application packets sent in the timed region.
func deriveCounts(res *result, from, to counters, pkts uint64) {
	var d counters
	for i := range d {
		d[i] = to[i] - from[i]
	}
	per := func(c ctr) float64 { return ratio(d[c], pkts) }
	m := res.Counts
	m["coding.coded_per_pkt"] = per(cEncCoded)
	m["coding.coded_bytes_frac"] = ratio(d[cEncCodedBytes], d[cEncDataBytes])
	m["coding.nacks_per_kpkt"] = 1000 * per(cRecNACKs)
	m["coding.coop_recovered_frac"] = ratio(d[cRecCoopRecovered], d[cRecCoopStarted])
	m["recovery.nacks_per_kpkt"] = 1000 * per(cRxNACKs)
	m["recovery.recovered_frac"] = ratio(d[cRxRecovered], d[cRxLosses])
	m["recovery.gaveup_per_kpkt"] = 1000 * per(cRxGaveUp)
	m["recovery.duplicates_per_pkt"] = per(cRxDuplicates)
	m["cache.puts_per_pkt"] = per(cCachePuts)
	m["cache.hit_frac"] = ratio(d[cCacheHits], d[cCacheHits]+d[cCacheMisses])
	m["forward.copies_per_pkt"] = per(cFwdCopies)
	m["forward.old_epoch_resolves"] = float64(d[cFwdOldEpoch])
	m["forward.noroute_drops"] = float64(d[cFwdNoRoute])
	m["sched.enq_per_pkt"] = per(cSchedEnq)
	m["sched.drop_frac"] = ratio(d[cSchedDrop], d[cSchedEnq]+d[cSchedDrop])
	m["load.admission_drop_frac"] = per(cAdmissionDrops)
	m["tenant.quota_drop_frac"] = per(cQuotaDrops)
	m["feedback.flow_signals"] = float64(d[cFlowSignals])
	m["feedback.rate_cuts"] = float64(d[cRateCuts])
	m["feedback.rate_recoveries"] = float64(d[cRateRecoveries])
	m["routing.recomputes"] = float64(d[cRecomputes])
	m["routing.incremental_frac"] = ratio(d[cIncremental], d[cRecomputes])
	m["routing.reroutes"] = float64(d[cReroutes])
	m["telemetry.trace_events"] = float64(d[cTraceEvents])
	m["telemetry.spans_finished"] = float64(d[cSpansFinished])

	// Operation counts per packet the ledger multiplies the isolated
	// drivers' ns/op by.
	res.ops = opsPerPkt{
		encData:     per(cEncData),
		codedStored: per(cRecCodedStored),
		rxData:      per(cRxData),
		cachePuts:   per(cCachePuts),
		cacheGets:   ratio(d[cCacheHits]+d[cCacheMisses], pkts),
		fwdCopies:   per(cFwdCopies),
		schedEnq:    per(cSchedEnq),
		linkRecords: per(cLinkPackets),
		bucketAdmit: per(cContractPackets),
		tenantAdmit: per(cTenantPackets),
	}
}

// opsPerPkt are the per-packet operation counts behind the ledger rows.
type opsPerPkt struct {
	encData, codedStored, rxData float64
	cachePuts, cacheGets         float64
	fwdCopies, schedEnq          float64
	linkRecords                  float64
	bucketAdmit, tenantAdmit     float64
}
