// Package durable makes the control plane crash-safe. The insight it
// leans on is that the platform is a deterministic discrete-event
// simulation: given the same configuration (seed, policy) and the same
// sequence of state-changing API actions applied at the same virtual
// times, core.Session rebuilds byte-identical platform state. Recovery
// therefore never serializes the engine — it records *inputs*:
//
//   - a write-ahead Journal appends one typed Record per state-changing
//     API action (submit, accept, counter, reject), fsync'd before the
//     handler replies;
//   - a Snapshot periodically compacts the full record history (plus
//     the config fingerprint, the virtual clock and a state digest)
//     into one atomically-replaced file, truncating the journal;
//   - Replay drives the records back through the ordinary session API
//     after a restart, stepping the virtual clock to each record's
//     time before applying it.
//
// A torn final journal record (the classic crash-mid-write artifact)
// is detected by CRC framing and dropped; anything torn earlier than
// the tail is corruption and refuses to load.
package durable

import (
	"fmt"

	"meryn/internal/api"
	"meryn/internal/sim"
)

// Kind tags a journal record with the API action it captures.
type Kind string

// Journaled control-plane actions. These mirror the mutating routes of
// the HTTP API one-to-one; read-only routes are never journaled.
const (
	KindSubmit  Kind = "submit"
	KindAccept  Kind = "accept"
	KindCounter Kind = "counter"
	KindReject  Kind = "reject"
	// Serverless rollout actions: deploy an immutable revision, move
	// traffic between revisions. Journaled like every other mutation, so
	// an in-flight canary survives a control-plane crash.
	KindDeployRevision Kind = "deploy-revision"
	KindSetTraffic     Kind = "set-traffic"
)

// Record is one state-changing control-plane action. TimeNS is the
// virtual clock at the moment the action was applied, in integer
// nanoseconds; Replay steps the engine there before re-applying, which
// is what makes the rebuilt state identical rather than merely
// similar. TimeS is the same instant in seconds, kept for display and
// for journals written before TimeNS existed: past about 10^7 s a
// float64 can no longer name every nanosecond, so stepping to TimeS
// can land a nanosecond off the live run.
type Record struct {
	Seq    int64   `json:"seq"`
	TimeS  float64 `json:"time_s"`
	TimeNS int64   `json:"time_ns,omitempty"`
	Kind   Kind    `json:"kind"`

	// Submit payload: the wire-form application, including the ID the
	// server assigned (so replay re-creates the same ID space).
	App *api.App `json:"app,omitempty"`

	// Accept/counter/reject target.
	AppID string `json:"app_id,omitempty"`

	// Accept payload.
	OfferIndex int `json:"offer_index,omitempty"`

	// Counter payload (exactly one of the two is non-zero).
	DeadlineS float64 `json:"deadline_s,omitempty"`
	Price     float64 `json:"price,omitempty"`

	// Deploy-revision payload.
	Revision string `json:"revision,omitempty"`

	// Set-traffic payload.
	Weights map[string]int `json:"weights,omitempty"`
}

// SetTime stamps the record with virtual time t, in both forms.
func (r *Record) SetTime(t sim.Time) {
	r.TimeS, r.TimeNS = sim.ToSeconds(t), int64(t)
}

// Time returns the virtual time the record was applied at: TimeNS when
// present, else TimeS rounded to the nearest nanosecond.
func (r Record) Time() sim.Time {
	if r.TimeNS != 0 {
		return sim.Time(r.TimeNS)
	}
	return sim.Seconds(r.TimeS)
}

// Validate rejects records that could never replay.
func (r Record) Validate() error {
	switch r.Kind {
	case KindSubmit:
		if r.App == nil || r.App.ID == "" {
			return fmt.Errorf("durable: submit record without an app ID")
		}
	case KindAccept, KindCounter, KindReject:
		if r.AppID == "" {
			return fmt.Errorf("durable: %s record without an app ID", r.Kind)
		}
	case KindDeployRevision:
		if r.AppID == "" {
			return fmt.Errorf("durable: %s record without an app ID", r.Kind)
		}
		if r.Revision == "" {
			return fmt.Errorf("durable: deploy-revision record without a revision name")
		}
	case KindSetTraffic:
		if r.AppID == "" {
			return fmt.Errorf("durable: %s record without an app ID", r.Kind)
		}
		if len(r.Weights) == 0 {
			return fmt.Errorf("durable: set-traffic record without weights")
		}
	default:
		return fmt.Errorf("durable: unknown record kind %q", r.Kind)
	}
	if r.TimeS < 0 || r.TimeNS < 0 {
		return fmt.Errorf("durable: record with negative time (%g s, %d ns)", r.TimeS, r.TimeNS)
	}
	return nil
}
