package core

import (
	"errors"
	"fmt"
	"reflect"

	"meryn/internal/cloud"
	"meryn/internal/framework"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/vmm"
)

// AuditConfig configures the always-on platform invariant auditor. The
// zero value (and a nil Config.Audit) means "enabled with defaults":
// every platform audits itself at a fixed simulated-time cadence unless
// explicitly opted out, so any lifecycle regression that breaks a
// conservation invariant fails loudly in every test and experiment that
// runs a platform, not just in the test that happens to assert it.
type AuditConfig struct {
	// Every is the audit period on the simulation clock (default 30 s).
	// Audits run as ordinary engine events, so they observe the state
	// between events — the barrier at which every invariant must hold.
	Every sim.Time

	// OnFail receives each invariant violation. The default panics: a
	// violated conservation invariant means the simulation state is no
	// longer meaningful, and continuing would only bury the cause.
	OnFail func(error)

	// Disabled switches the auditor off (overhead baselines; the
	// auditor is otherwise always on).
	Disabled bool
}

const defaultAuditEveryS = 30

// Auditor checks platform-wide conservation invariants at audit
// barriers. It is deliberately read-only and draws no randomness, so an
// enabled auditor changes no simulation outcome: RNG streams are named
// per component, audit events reorder nothing, and every output used
// for golden or worker-invariance comparisons is byte-identical with
// the auditor on or off.
//
// The invariant catalogue (see DESIGN.md "Invariant catalogue"):
//
//   - Node conservation, per VC: the framework's node count, the CM's
//     lease table, and OwnedPrivate agree; free/idle-disabled index
//     recounts (via framework.Inspector) match the maintained indexes.
//   - Lease-table/ResourceManager agreement: every attached private
//     node is a running VM; every attached cloud node has a running
//     lease at its provider, billed at the price locked at launch.
//   - Money conservation: the PrivateUsed/CloudUsed gauges equal the
//     sum over open accounting segments; provider spend aggregates and
//     per-app ledger costs are non-negative and non-decreasing.
//   - Gauge/counter sanity: usage gauges are non-negative and agree
//     with the last point of their Series; counters never decrease.
//   - Substrate self-audits: the VM manager's and every provider's
//     internal recounts (vmm.Manager.Audit, cloud.Provider.Audit).
//
// Deliberately NOT checked, because they do not hold between events:
// per-VC avail can be legitimately negative after crashes with
// commitments outstanding; CloudUsed can transiently exceed the
// providers' active totals while a revoked node sits in a still-open
// segment; and providers can hold running leases after drain when a
// late replacement lease sits attached but idle.
type Auditor struct {
	p      *Platform
	every  sim.Time
	onFail func(error)
	armed  bool

	// Checks counts completed audits; Violations counts invariant
	// failures reported through OnFail.
	Checks     int64
	Violations int64

	// counters are the platform, VMM and provider counters in snapshot
	// order, resolved once at construction.
	counters []*metrics.Counter

	// Monotonicity snapshots from the previous audit, and the buffers
	// the current audit fills before they swap in. lastCost is indexed
	// by ledger position: the ledger is append-only, so position i
	// names the same application at every audit.
	lastCounters, curCounters []int64
	lastSpend, curSpend       []float64 // per provider: TotalSpend, SpotSpend
	lastCost                  []float64

	// now and errs are the running audit's clock and the violations it
	// has found so far.
	now  sim.Time
	errs []error

	// freeVisit checks one of visitCM's free-index nodes against its
	// lease table; it is bound once so the visit allocates nothing.
	visitCM   *ClusterManager
	freeVisit func(id string) bool
}

// newAuditor returns an armed-on-demand auditor, or nil when disabled.
func newAuditor(p *Platform, cfg *AuditConfig) *Auditor {
	if cfg == nil || cfg.Disabled {
		return nil
	}
	every := cfg.Every
	if every <= 0 {
		every = sim.Seconds(defaultAuditEveryS)
	}
	onFail := cfg.OnFail
	if onFail == nil {
		onFail = func(err error) { panic(err) }
	}
	a := &Auditor{p: p, every: every, onFail: onFail, counters: auditCounters(p)}
	a.freeVisit = func(id string) bool {
		if _, ok := a.visitCM.nodes[id]; !ok {
			a.fail("%s: free node %s not in CM lease table", a.visitCM.name, id)
		}
		return true
	}
	return a
}

// auditCounters lists every platform, VMM and provider counter for the
// monotonicity check. Platform counters are enumerated by reflection,
// once, so counters added later are covered automatically.
func auditCounters(p *Platform) []*metrics.Counter {
	var out []*metrics.Counter
	rv := reflect.ValueOf(&p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			out = append(out, c)
		}
	}
	out = append(out, &p.VMM.Starts, &p.VMM.Stops, &p.VMM.Crashes)
	for _, prov := range p.Clouds {
		out = append(out, &prov.Launches, &prov.Failures, &prov.Revocations)
	}
	return out
}

// arm schedules the next audit barrier. The timer is armed when work
// enters the platform and re-arms itself only while unsettled
// applications remain AND other events are queued: the auditor must
// never keep the simulation alive on its own, or event-exhaustion
// drivers (RunAll, the session settle loop waiting on an interactive
// negotiation) would spin on audit events forever.
func (a *Auditor) arm() {
	if a == nil || a.armed {
		return
	}
	a.armed = true
	a.p.Eng.Schedule(a.every, a.tick)
}

func (a *Auditor) tick() {
	a.armed = false
	// Sharded platforms audit at the window barrier, after the merge:
	// mid-window the shard outboxes hold detaches and gauge moves the
	// audit would misread as violations. The barrier is exactly the
	// "between events" consistent point the catalogue is defined at.
	if a.p.shards != nil {
		a.p.auditPending = true
	} else {
		a.run()
	}
	if a.p.remaining > 0 && a.p.eventsPending() > 0 {
		a.arm()
	}
}

// run performs one audit, reporting every violation through OnFail.
func (a *Auditor) run() []error {
	if a == nil {
		return nil
	}
	errs := a.check()
	a.Checks++
	for _, err := range errs {
		a.Violations++
		a.onFail(err)
	}
	return errs
}

// AuditNow audits the platform immediately and returns all violations
// joined (nil when every invariant holds). Violations are also reported
// through the configured OnFail. With the auditor disabled it reports
// nothing and returns nil.
func (p *Platform) AuditNow() error {
	if p.Audit == nil {
		return nil
	}
	return errors.Join(p.Audit.run()...)
}

// check evaluates the whole invariant catalogue and returns the
// violations found. It walks every application each VC has admitted,
// every VM ever started and every ledger record, each an append-only
// slice in order, so open-segment violations come in admission order.
func (a *Auditor) check() []error {
	p := a.p
	now := p.Eng.Now()
	a.now, a.errs = now, nil

	sumSegPrivate, sumSegCloud, totalOwned := 0, 0, 0
	for _, name := range p.cmOrder {
		cm := p.cms[name]
		a.checkCM(cm)
		totalOwned += cm.OwnedPrivate
		for _, st := range cm.admitted {
			if !st.segOpen {
				continue
			}
			id := st.app.ID
			if st.segRate < 0 {
				a.fail("%s/%s: open segment with negative rate %g", name, id, st.segRate)
			}
			if st.segStart > now {
				a.fail("%s/%s: open segment starts in the future (%s)", name, id, st.segStart)
			}
			if st.segPrivateN < 0 || st.segCloudN < 0 {
				a.fail("%s/%s: open segment with negative node counts (%d private, %d cloud)",
					name, id, st.segPrivateN, st.segCloudN)
			}
			sumSegPrivate += st.segPrivateN
			sumSegCloud += st.segCloudN
		}
	}

	// Money/usage conservation: the platform gauges are exactly the sum
	// of the open accounting segments (segment and gauge moves are
	// atomic in openSegment/closeSegment).
	if v := p.PrivateUsed.Value(); v != sumSegPrivate {
		a.fail("PrivateUsed gauge %d != %d private nodes across open segments", v, sumSegPrivate)
	}
	if v := p.CloudUsed.Value(); v != sumSegCloud {
		a.fail("CloudUsed gauge %d != %d cloud nodes across open segments", v, sumSegCloud)
	}

	// Substrate self-audits.
	vmCounts, err := p.VMM.Audit()
	if err != nil {
		a.errs = append(a.errs, err)
	}
	if run := vmCounts[vmm.StateRunning]; totalOwned > run {
		a.fail("%d private nodes attached across VCs but only %d VMs running", totalOwned, run)
	}
	for _, prov := range p.Clouds {
		if err := prov.Audit(); err != nil {
			a.errs = append(a.errs, err)
		}
	}

	// Gauge sanity: non-negative, and the last series point carries the
	// current value (compaction preserves the most recent sample).
	a.checkGauge(p.PrivateUsed)
	a.checkGauge(p.CloudUsed)
	a.checkGauge(p.VMM.UsedGauge)
	for _, prov := range p.Clouds {
		a.checkGauge(prov.UsedGauge)
	}

	// Counter and spend monotonicity against the previous audit.
	cur := a.curCounters[:0]
	for _, c := range a.counters {
		cur = append(cur, c.Count)
	}
	if a.lastCounters != nil {
		for i, v := range cur {
			if v < a.lastCounters[i] {
				a.fail("counter #%d decreased (%d -> %d)", i, a.lastCounters[i], v)
			}
		}
	}
	for _, v := range cur {
		if v < 0 {
			a.fail("negative counter value %d", v)
		}
	}
	a.lastCounters, a.curCounters = cur, a.lastCounters

	spend := a.curSpend[:0]
	for _, prov := range p.Clouds {
		spend = append(spend, prov.TotalSpend, prov.SpotSpend)
	}
	if a.lastSpend != nil {
		for i, v := range spend {
			if v < a.lastSpend[i]-1e-9 {
				a.fail("provider spend #%d decreased (%g -> %g)", i, a.lastSpend[i], v)
			}
		}
	}
	a.lastSpend, a.curSpend = spend, a.lastSpend

	// Ledger sanity: prices, penalties and costs are non-negative,
	// completed records are time-ordered, and per-app cost never
	// shrinks between audits.
	for i, rec := range p.Ledger.All() {
		if rec.Cost < 0 || rec.Penalty < 0 || rec.Price < 0 {
			a.fail("app %s: negative money (price=%g penalty=%g cost=%g)", rec.ID, rec.Price, rec.Penalty, rec.Cost)
		}
		if rec.EndTime > 0 && rec.StartTime > 0 && rec.EndTime < rec.StartTime {
			a.fail("app %s: ends before it starts (%s < %s)", rec.ID, rec.EndTime, rec.StartTime)
		}
		if i == len(a.lastCost) {
			a.lastCost = append(a.lastCost, rec.Cost)
			continue
		}
		if prev := a.lastCost[i]; rec.Cost < prev-1e-9 {
			a.fail("app %s: cost decreased (%g -> %g)", rec.ID, prev, rec.Cost)
		}
		a.lastCost[i] = rec.Cost
	}

	if p.remaining < 0 {
		a.fail("negative remaining-application count %d", p.remaining)
	}
	return a.errs
}

// fail records one violation of the running audit.
func (a *Auditor) fail(format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("audit[t=%s]: "+format, append([]any{a.now}, args...)...))
}

// checkCM audits one VC: agreement of the CM's node list with its
// lease table; node conservation between the framework, the CM lease
// table and OwnedPrivate; index recounts via framework.Inspector; and
// lease-table/ResourceManager agreement for every attached node. Nodes
// are walked once, in nodeList order, so per-node violations come in
// that (deterministic) order.
func (a *Auditor) checkCM(cm *ClusterManager) {
	name := cm.name
	if len(cm.nodeList) != len(cm.nodes) {
		a.fail("%s: node list holds %d nodes but CM lease table has %d", name, len(cm.nodeList), len(cm.nodes))
	}
	insp, inspect := cm.fw.(framework.Inspector)
	cloudAttached, idleDisabled := 0, 0
	var freeKind [2]int
	for i, info := range cm.nodeList {
		id := info.id
		if cm.nodes[id] != info {
			a.fail("%s: node %s in node list but not in CM lease table", name, id)
		}
		if info.pos != i {
			a.fail("%s: node %s at node list position %d records position %d", name, id, i, info.pos)
		}
		if info.cloud {
			cloudAttached++
		}
		if inspect {
			if st, ok := insp.InspectNode(id); !ok {
				a.fail("%s: node %s in CM lease table but unknown to framework", name, id)
			} else {
				if st.Cloud != info.cloud {
					a.fail("%s: node %s kind mismatch (framework cloud=%v, CM cloud=%v)", name, id, st.Cloud, info.cloud)
				}
				switch {
				case st.Busy:
				case st.Disabled:
					idleDisabled++
				case st.Cloud:
					freeKind[1]++
				default:
					freeKind[0]++
				}
			}
		}
		a.checkLease(cm, info)
	}

	if n := cm.fw.NumNodes(); n != len(cm.nodes) {
		a.fail("%s: framework holds %d nodes but CM lease table has %d", name, n, len(cm.nodes))
	}
	if own := len(cm.nodeList) - cloudAttached; cm.OwnedPrivate != own {
		a.fail("%s: OwnedPrivate=%d but %d private nodes attached", name, cm.OwnedPrivate, own)
	}
	if inspect {
		for k, cloudKind := range []bool{false, true} {
			if got := cm.fw.FreeNodeCount(cloudKind); got != freeKind[k] {
				a.fail("%s: FreeNodeCount(cloud=%v)=%d but recount is %d", name, cloudKind, got, freeKind[k])
			}
		}
		if got := len(cm.fw.IdleDisabledNodeIDs()); got != idleDisabled {
			a.fail("%s: %d idle-disabled nodes indexed but recount is %d", name, got, idleDisabled)
		}
		a.visitCM = cm
		cm.fw.VisitFreeNodes(false, a.freeVisit)
		cm.fw.VisitFreeNodes(true, a.freeVisit)
	}
}

// checkLease verifies one attached node against the ResourceManager: a
// private node is a running VM; a cloud node has a running lease at its
// provider, billed at the price locked at launch.
func (a *Auditor) checkLease(cm *ClusterManager, info *nodeInfo) {
	name, id := cm.name, info.id
	if !info.cloud {
		vm, err := cm.p.VMM.Get(id)
		if err != nil {
			a.fail("%s: attached private node %s unknown to VMM", name, id)
			return
		}
		if vm.State != vmm.StateRunning {
			a.fail("%s: attached private node %s is %v", name, id, vm.State)
		}
		return
	}
	if info.provider == nil {
		a.fail("%s: attached cloud node %s has no provider", name, id)
		return
	}
	inst, ok := info.provider.Lease(info.instID)
	if !ok {
		a.fail("%s: attached cloud node %s has no tracked lease %s at %s", name, id, info.instID, info.provider.Name())
		return
	}
	if inst.State != cloud.InstanceRunning {
		a.fail("%s: attached cloud node %s lease is %v", name, id, inst.State)
	}
	if inst.PriceAtLaunch != info.rate {
		a.fail("%s: cloud node %s billed at %g but lease price locked at %g", name, id, info.rate, inst.PriceAtLaunch)
	}
}

// checkGauge verifies non-negativity and that the gauge's series ends
// at its current value.
func (a *Auditor) checkGauge(g *metrics.Gauge) {
	v := g.Value()
	if v < 0 {
		a.fail("gauge %s negative (%d)", g.Series().Name, v)
	}
	pts := g.Series().Points()
	if n := len(pts); n > 0 && pts[n-1].Value != float64(v) {
		a.fail("gauge %s value %d disagrees with last series point %g", g.Series().Name, v, pts[n-1].Value)
	}
}
