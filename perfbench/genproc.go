package main

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// The load generator runs in a child process of its own (the same binary
// started with --gen-child). In one process the generator's pacer and
// 1024 senders share the Go scheduler with the router and workers, and
// the scheduler's handling of either side's wake-ups shows up as the
// other side's latency; across a process boundary the two only share the
// cores. The parent sends one genRequest per phase over the child's stdin
// and reads back a genReply with every slot's record on its stdout.

// genRequest asks the generator for one open-loop phase.
type genRequest struct {
	Addr          string // router address; the first request dials it
	Names         []string
	In, Out       int
	Seed          uint64
	Hot           bool
	Phase         int
	Rate, Seconds float64
}

// genReply carries a phase's per-slot records back to the parent. Slot
// times are nanoseconds since EpochUnix, the wall-clock start of the phase.
type genReply struct {
	Err            string
	EpochUnix      int64
	SendNs, DoneNs []int64
	Status         []uint8
	FromSurrogate  []bool
	Answers        [][]float64
	Nonfinite      int64
	Drops          int
	ClientRetries  int64
}

// runGenChild serves genRequests until its stdin closes.
func runGenChild() error {
	dec := gob.NewDecoder(os.Stdin)
	enc := gob.NewEncoder(os.Stdout)
	var g *generator
	defer func() {
		if g != nil {
			g.close()
		}
	}()
	for {
		var req genRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if g == nil {
			var err error
			if g, err = newGenerator(req.Addr, req.In, req.Out); err != nil {
				return enc.Encode(genReply{Err: err.Error()})
			}
		}
		p := newPhase(req.Rate, req.Seconds, req.Out, false, phaseInput(req.Seed, req.Phase, req.Names, req.Hot))
		drops := g.run(p)
		if err := enc.Encode(genReply{
			EpochUnix: p.epoch.UnixNano(),
			SendNs:    p.sendNs, DoneNs: p.doneNs, Status: p.status, FromSurrogate: p.fromSurrogate,
			Answers: p.answers, Nonfinite: p.nonfinite.Load(), Drops: drops,
			ClientRetries: g.cl.Stats().Retries,
		}); err != nil {
			return err
		}
	}
}

// genProc is the parent's handle on a generator child process.
type genProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *gob.Encoder
	dec   *gob.Decoder
	// clientRetries is the child's ResilientClient retry count so far.
	clientRetries int64
}

func startGenProc() (*genProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--gen-child")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the generator process: %w", err)
	}
	return &genProc{cmd: cmd, stdin: stdin, enc: gob.NewEncoder(stdin), dec: gob.NewDecoder(stdout)}, nil
}

// run has the child generate req and fills p (built by the parent with
// the same rate, length and input) from the reply. It returns the number
// of silently dropped requests.
func (gp *genProc) run(req genRequest, p *phase) (int, error) {
	if err := gp.enc.Encode(req); err != nil {
		return 0, fmt.Errorf("generator process: %w", err)
	}
	var rep genReply
	if err := gp.dec.Decode(&rep); err != nil {
		return 0, fmt.Errorf("generator process: %w", err)
	}
	if rep.Err != "" {
		return 0, fmt.Errorf("generator process: %s", rep.Err)
	}
	if len(rep.Status) != p.n {
		return 0, fmt.Errorf("generator process: %d slots, want %d", len(rep.Status), p.n)
	}
	p.epoch = time.Unix(0, rep.EpochUnix)
	p.sendNs, p.doneNs, p.status, p.fromSurrogate = rep.SendNs, rep.DoneNs, rep.Status, rep.FromSurrogate
	p.answers = rep.Answers
	p.nonfinite.Store(rep.Nonfinite)
	gp.clientRetries = rep.ClientRetries
	return rep.Drops, nil
}

// close ends the child (its stdin closes) and waits for it to exit.
func (gp *genProc) close() error {
	gp.stdin.Close()
	return gp.cmd.Wait()
}
