package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/seglog"
)

// Checkpoint is a durable snapshot of serving state (the server's
// serialized per-VM sessions) paired with the journal position it
// covers: recovery loads the newest readable checkpoint and replays
// the journal from Pos.
type Checkpoint struct {
	// Seq orders checkpoints; the highest readable one wins.
	Seq uint64 `json:"seq"`
	// Pos is the journal position the payload state covers: every
	// record at or before Pos is folded into Payload, every record
	// after it must be replayed.
	Pos Position `json:"pos"`
	// TakenAtUnixNS is when the checkpoint was captured.
	TakenAtUnixNS int64 `json:"taken_at_unix_ns"`
	// ModelHash is the hex compatibility hash of the model the payload
	// sessions were serialized under. Recovery refuses a checkpoint whose
	// hash differs from the loaded model's: the serialized drift
	// accumulators, phase segmentation, and open-set counts are only
	// meaningful under the model that produced them. Empty on
	// checkpoints written before model stamping.
	ModelHash string `json:"model_hash,omitempty"`
	// Payload is the caller-defined serialized state.
	Payload json.RawMessage `json:"payload"`
}

// TakenAt returns the capture time.
func (c Checkpoint) TakenAt() time.Time { return time.Unix(0, c.TakenAtUnixNS) }

// checkpointsToKeep is how many recent checkpoint files survive
// pruning: the newest plus one fallback in case the newest is
// unreadable (it is written atomically, so that means disk damage, not
// a crash mid-write).
const checkpointsToKeep = 2

// checkpointName is the checkpoint file family:
// checkpoint-00000001.ckpt, checkpoint-00000002.ckpt, ...
var checkpointName = seglog.Name{Prefix: "checkpoint", Ext: "ckpt"}

// listCheckpoints returns the checkpoint sequence numbers in dir,
// oldest first.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read %s: %w", dir, err)
	}
	var out []uint64
	for _, e := range entries {
		if seq, ok := checkpointName.Parse(e.Name()); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// SaveCheckpoint atomically publishes a new checkpoint covering pos
// into the journal directory (seglog.Publish), then prunes all but the
// newest checkpointsToKeep files. modelHash is the hex compatibility
// hash of the model the payload was serialized under ("" to leave the
// checkpoint unstamped). It returns the new checkpoint's sequence.
func SaveCheckpoint(dir string, pos Position, takenAt time.Time, modelHash string, payload []byte) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	seq := uint64(1)
	if n := len(seqs); n > 0 {
		seq = seqs[n-1] + 1
	}
	doc, err := json.Marshal(Checkpoint{
		Seq:           seq,
		Pos:           pos,
		TakenAtUnixNS: takenAt.UnixNano(),
		ModelHash:     modelHash,
		Payload:       payload,
	})
	if err != nil {
		return 0, fmt.Errorf("wal: encode checkpoint: %w", err)
	}
	err = seglog.Publish(checkpointName.Path(dir, seq), func(w io.Writer) error {
		_, err := w.Write(doc)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("wal: save checkpoint: %w", err)
	}
	// Prune older checkpoints; failures here are cosmetic (stale files),
	// not correctness problems, so they do not fail the save.
	for i := 0; i+checkpointsToKeep <= len(seqs); i++ {
		os.Remove(checkpointName.Path(dir, seqs[i]))
	}
	return seq, nil
}

// LatestCheckpoint returns the newest readable checkpoint in dir, or
// nil if none exists. An unreadable newer checkpoint is skipped in
// favour of an older readable one.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		b, err := os.ReadFile(checkpointName.Path(dir, seqs[i]))
		if err != nil {
			continue
		}
		var c Checkpoint
		if err := json.Unmarshal(b, &c); err != nil {
			continue
		}
		return &c, nil
	}
	return nil, nil
}
