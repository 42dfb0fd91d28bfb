package durable

import (
	"fmt"

	"meryn/internal/core"
	"meryn/internal/sim"
)

// ReplayStats summarizes a recovery pass.
type ReplayStats struct {
	Applied int      // records whose action took effect again
	Failed  int      // records whose action errored (it errored live too)
	Errors  []string // one "seq N (kind): err" line per failed record
}

// Replay rebuilds session state by re-applying journaled actions in
// order. Before each record it steps the virtual clock to the record's
// time, so every submission, offer computation and contract lands at
// exactly the instant it did live — the determinism the sweep harness
// proves is what makes the rebuilt state byte-identical.
//
// onMutate mirrors the server's post-mutation hook (merynd's
// virtual-time mode fast-forwards there); it runs after every record
// that applied cleanly, exactly as the live handler did. Records whose
// action errors are counted and skipped, not fatal: the journal is
// written ahead of the apply, so a request that failed validation live
// fails identically here and leaves the same state behind.
func Replay(sess *core.Session, recs []Record, onMutate func()) ReplayStats {
	var stats ReplayStats
	for _, r := range recs {
		sess.Step(r.Time())
		if err := apply(sess, r); err != nil {
			stats.Failed++
			stats.Errors = append(stats.Errors, fmt.Sprintf("seq %d (%s): %v", r.Seq, r.Kind, err))
			continue
		}
		if onMutate != nil {
			onMutate()
		}
		stats.Applied++
	}
	return stats
}

// apply re-issues one record through the session API with the same
// semantics as the live HTTP handler.
func apply(sess *core.Session, r Record) error {
	switch r.Kind {
	case KindSubmit:
		app, err := r.App.ToWorkload()
		if err != nil {
			return err
		}
		dueNow := app.SubmitAt <= sess.Now()
		neg, err := sess.Submit(app)
		if err != nil {
			return err
		}
		if dueNow {
			return neg.Await()
		}
		return nil
	case KindAccept:
		neg, err := negotiation(sess, r.AppID)
		if err != nil {
			return err
		}
		_, err = neg.Accept(r.OfferIndex)
		return err
	case KindCounter:
		neg, err := negotiation(sess, r.AppID)
		if err != nil {
			return err
		}
		_, err = neg.Counter(sim.Seconds(r.DeadlineS), r.Price)
		return err
	case KindReject:
		neg, err := negotiation(sess, r.AppID)
		if err != nil {
			return err
		}
		return neg.Reject()
	case KindDeployRevision:
		return sess.DeployRevision(r.AppID, r.Revision)
	case KindSetTraffic:
		return sess.SetTrafficSplit(r.AppID, r.Weights)
	default:
		return fmt.Errorf("durable: unknown record kind %q", r.Kind)
	}
}

func negotiation(sess *core.Session, appID string) (*core.Negotiation, error) {
	neg, ok := sess.Negotiation(appID)
	if !ok {
		return nil, fmt.Errorf("durable: no negotiation for app %q", appID)
	}
	return neg, nil
}
