package proto

import "time"

// Federation frame kinds: the dispatcher↔dispatcher (router tier) protocol.
// A router attaches to a dispatcher instance over the same listener workers
// use — the first frame's kind selects the peer service path instead of the
// worker path.
const (
	KindPeerAttach   Kind = "peer-attach"   // router -> dispatcher: serve me as a federation peer
	KindPeerAttached Kind = "peer-attached" // dispatcher -> router: accepted, here is my live set
	KindPeerSubmit   Kind = "peer-submit"   // router -> dispatcher: run this job
	KindJobDone      Kind = "job-done"      // dispatcher -> router: a routed job reached a terminal state
	KindLoadReport   Kind = "load-report"   // dispatcher -> router: periodic backlog/idle sample
	KindStealRequest Kind = "steal-request" // router -> dispatcher: give up queued jobs
	KindStealReply   Kind = "steal-reply"   // dispatcher -> router: the jobs stolen
)

// PeerAttach opens a federation link. Outstanding lists the job IDs the
// router believes it has routed to this instance and not yet seen complete —
// after an instance restart the attached reply's Live set tells the router
// which of them survived in the instance's journal (watch those) and which
// were lost (resubmit those).
type PeerAttach struct {
	PeerID string `json:"peer_id"`
	// Outstanding job IDs the router is still waiting on at this instance.
	Outstanding []string `json:"outstanding,omitempty"`
	// LoadEvery requests a load-report cadence; 0 means the server default.
	LoadEvery time.Duration `json:"load_every,omitempty"`
}

// PeerInfo is the attach acknowledgement payload.
type PeerInfo struct {
	// Live is the instance's current live job set (queued, running, or
	// retry-pending), including jobs recovered from its journal.
	Live []string `json:"live,omitempty"`
}

// PeerSubmit carries one job from the router to an instance: the same fields
// the journal's Submitted record persists, so a routed job and a recovered
// job are built from identical material.
type PeerSubmit struct {
	JobID     string        `json:"job_id"`
	JobType   int           `json:"job_type,omitempty"`
	Priority  int           `json:"priority,omitempty"`
	NProcs    int           `json:"nprocs"`
	Cmd       string        `json:"cmd"`
	Args      []string      `json:"args,omitempty"`
	Env       []string      `json:"env,omitempty"`
	Dir       string        `json:"dir,omitempty"`
	WallLimit time.Duration `json:"wall_limit,omitempty"`
	// Stolen marks a transfer of an already-accepted job (steal rebalancing):
	// the instance places it at the queue front under the draining gate and
	// preserves the retry budget, instead of treating it as a fresh submit.
	Stolen  bool `json:"stolen,omitempty"`
	Retries int  `json:"retries,omitempty"`
}

// JobDone reports the terminal state of a routed job back to the router.
type JobDone struct {
	JobID   string `json:"job_id"`
	Failed  bool   `json:"failed,omitempty"`
	Err     string `json:"err,omitempty"`
	Retries int    `json:"retries,omitempty"`
	// Rejected means the submit itself was refused (duplicate ID, draining
	// instance): the job never ran, so the router may re-place it.
	Rejected bool `json:"rejected,omitempty"`
}

// LoadReport is an instance's periodic backlog sample, the router's input
// for least-loaded placement and steal decisions.
type LoadReport struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Idle    int `json:"idle"`
	Workers int `json:"workers"`
}

// StealRequest asks an instance to give up queued (never running) jobs.
type StealRequest struct {
	// Max bounds how many jobs the instance may release.
	Max int `json:"max"`
	// Dest names the instance the jobs are being moved to, recorded in the
	// victim's journal Migrated records for forensics.
	Dest string `json:"dest,omitempty"`
}

// StealReply returns the stolen jobs, oldest first.
type StealReply struct {
	Jobs []PeerSubmit `json:"jobs,omitempty"`
}
