package resilience_test

// The chaos matrix: every variant the kernelreg registry knows — kernel
// × format × backend, including CSF and fCOO — is run under injected
// worker panics (transient and persistent), stalls past the trial
// deadline, and failed gpusim launches. The matrix enumerates
// kernelreg.All(), so registering a new variant chaos-covers it without
// editing this test. The invariant under test is the suite's robustness
// contract: an injected fault yields a typed error or a verified
// fallback result — never a process crash — and a trial that exceeds its
// deadline reports ErrDeadline within 2× the configured timeout.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernelreg"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

const (
	chaosDims     = 30
	chaosNNZ      = 2000
	chaosR        = 8
	chaosBits     = 3
	chaosSegSize  = 64 // small segments → many blocks → many fault sites
	chaosThreads  = 4
	chaosTol      = 2e-3
	chaosTimeout  = 250 * time.Millisecond
	chaosStallFor = 5 * time.Second // far past the deadline; ctx-bounded
)

func chaosOpt(ctx context.Context) parallel.Options {
	return parallel.Options{Ctx: ctx, Threads: chaosThreads, Schedule: parallel.Dynamic}
}

// chaosBench builds one scenario's workbench: a fresh tensor and config
// per scenario, so an attempt abandoned at the deadline can never write
// into a buffer a later scenario is reading.
func chaosBench() *kernelreg.Workbench {
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandomCOO([]tensor.Index{chaosDims, chaosDims, chaosDims}, chaosNNZ, rng)
	return kernelreg.NewWorkbench(x, kernelreg.Config{
		R: chaosR, BlockBits: chaosBits, SegSize: chaosSegSize,
		Sched: parallel.Options{Threads: chaosThreads, Schedule: parallel.Dynamic},
	})
}

// TestChaosMatrix drives every registered variant through each fault
// mode and asserts the robustness contract.
func TestChaosMatrix(t *testing.T) {
	type faultCase struct {
		name  string
		fault resilience.Fault
		nth   int64 // 0 = every call (persistent)
		want  resilience.Outcome
	}
	for _, v := range kernelreg.All() {
		faults := []faultCase{
			{"panic-once", resilience.FaultPanic, 1, resilience.OutcomeRecovered},
			{"panic-persistent", resilience.FaultPanic, 0, resilience.OutcomeFellBack},
			{"stall", resilience.FaultStall, 1, resilience.OutcomeTimeout},
		}
		// Launch faults exist only on the simulated-device backends; OMP
		// and OOC run no gpusim launches, so the fault would never fire.
		if v.Backend == kernelreg.GPU || v.Backend == kernelreg.MultiGPU {
			faults = append(faults,
				faultCase{"launch-fail", resilience.FaultLaunchFail, 0, resilience.OutcomeFellBack})
		}
		for _, fc := range faults {
			v, fc := v, fc
			name := fmt.Sprintf("%s/%s/%s/%s", v.Kernel, v.Format, v.Backend, fc.name)
			t.Run(name, func(t *testing.T) {
				runChaosScenario(t, v, fc.fault, fc.nth, fc.want)
			})
		}
	}
}

func runChaosScenario(t *testing.T, v *kernelreg.Variant, fault resilience.Fault, nth int64, want resilience.Outcome) {
	wb := chaosBench()
	// The golden reference and both instances are built before any hook
	// is installed; prim and fall are separate instances so a straggler
	// abandoned on the primary rung cannot race the fallback's buffers.
	golden, err := wb.Reference(context.Background(), v.Kernel, 0)
	if err != nil {
		t.Fatalf("setup reference: %v", err)
	}
	prim, err := v.Prepare(wb, 0)
	if err != nil {
		t.Fatalf("setup primary: %v", err)
	}
	fall, err := v.Prepare(wb, 0)
	if err != nil {
		t.Fatalf("setup fallback: %v", err)
	}

	in := resilience.NewInjector(1)
	chaosCtx, cancel := context.WithCancel(context.Background())
	in.Arm(chaosCtx, fault, nth, chaosStallFor)
	in.Install()
	var devs []*gpusim.Device
	switch v.Backend {
	case kernelreg.GPU:
		devs = []*gpusim.Device{wb.Device()}
	case kernelreg.MultiGPU:
		devs = wb.Devices()
	}
	for _, d := range devs {
		in.InstallDevice(d)
	}
	defer func() {
		in.Uninstall()
		for _, d := range devs {
			in.UninstallDevice(d)
		}
		cancel() // unblock any still-stalled worker
	}()

	backend := v.Backend.String()
	runner := &resilience.Runner{DrainGrace: 50 * time.Millisecond}
	trial := resilience.Trial{
		Label:   v.Label(),
		Timeout: chaosTimeout,
		Retries: 2,
		Rungs: []resilience.Rung{
			{Backend: backend, Exec: prim.Run},
			{Backend: "serial", Exec: fall.Serial},
		},
		Verify: func() error {
			if dev := kernelreg.Compare(fall.Output(), golden); dev > chaosTol {
				return fmt.Errorf("fallback deviates %.2e from reference", dev)
			}
			return nil
		},
	}

	start := time.Now()
	rep := runner.Do(context.Background(), trial)
	elapsed := time.Since(start)

	if in.Injected() == 0 {
		t.Fatalf("fault %v never fired (report %+v)", fault, rep)
	}
	if rep.Outcome != want {
		t.Fatalf("outcome = %v (err %v), want %v", rep.Outcome, rep.Err, want)
	}
	switch want {
	case resilience.OutcomeTimeout:
		if !errors.Is(rep.Err, resilience.ErrDeadline) {
			t.Fatalf("timeout err = %v, want ErrDeadline in chain", rep.Err)
		}
		// The acceptance bound: ErrDeadline within 2× the configured
		// timeout (drain grace included well inside the margin).
		if elapsed > 2*chaosTimeout {
			t.Fatalf("deadline reported after %v, want <= %v", elapsed, 2*chaosTimeout)
		}
	case resilience.OutcomeFellBack:
		if rep.Backend != "serial" || rep.FellFrom != backend {
			t.Fatalf("report = %+v, want serial fallback from %s", rep, backend)
		}
	case resilience.OutcomeRecovered:
		if rep.Backend != backend {
			t.Fatalf("report = %+v, want recovery on %s", rep, backend)
		}
	}

	// Drain a stalled straggler before the next scenario reuses the
	// process-wide hook: cancel the chaos context and wait for the
	// abandoned attempt to settle.
	cancel()
	if rep.Settled != nil {
		select {
		case <-rep.Settled:
		case <-time.After(10 * time.Second):
			t.Fatal("abandoned attempt never settled after cancel")
		}
	}
}

// TestDivNonFiniteDetected is the Tew/Ts division regression: IEEE
// semantics make x/0 = ±Inf and 0/0 = NaN without any panic, so a
// division trial must catch non-finite outputs via its Check hook
// rather than report garbage as a result.
func TestDivNonFiniteDetected(t *testing.T) {
	dims := []tensor.Index{4, 4, 4}
	x := tensor.NewCOO(dims, 3)
	x.AppendIdx3(0, 0, 0, 1)
	x.AppendIdx3(1, 1, 1, 0)
	x.AppendIdx3(2, 2, 2, 5)
	y := x.Clone()
	y.Vals[0] = 2
	y.Vals[1] = 0 // 0/0 -> NaN
	y.Vals[2] = 0 // 5/0 -> +Inf

	t.Run("Tew", func(t *testing.T) {
		plan, err := core.PrepareTew(x, y, core.Div)
		if err != nil {
			t.Fatal(err)
		}
		r := &resilience.Runner{}
		rep := r.Do(context.Background(), resilience.Trial{
			Label: resilience.Label{Kernel: "Tew", Format: "COO", Backend: "omp"},
			Rungs: []resilience.Rung{{Backend: "omp", Exec: func(ctx context.Context) error {
				_, err := plan.ExecuteOMP(chaosOpt(ctx))
				return err
			}}},
			Check: func() error { return resilience.CheckFinite(plan.Out.Vals) },
		})
		if rep.Outcome != resilience.OutcomeFailed || !errors.Is(rep.Err, resilience.ErrNonFinite) {
			t.Fatalf("report = %+v, want failed with ErrNonFinite", rep)
		}
	})

	t.Run("Ts", func(t *testing.T) {
		// Division by a zero scalar is rejected at prepare time.
		if _, err := core.PrepareTs(x, 0, core.Div); err == nil {
			t.Fatal("PrepareTs accepted division by zero")
		}
		// A finite divisor can still overflow float32 to +Inf; the trial
		// Check has to catch that.
		xb := x.Clone()
		xb.Vals[2] = 3e38
		plan, err := core.PrepareTs(xb, 1e-3, core.Div) // 3e38/1e-3 overflows
		if err != nil {
			t.Fatal(err)
		}
		r := &resilience.Runner{}
		rep := r.Do(context.Background(), resilience.Trial{
			Label: resilience.Label{Kernel: "Ts", Format: "COO", Backend: "omp"},
			Rungs: []resilience.Rung{{Backend: "omp", Exec: func(ctx context.Context) error {
				_, err := plan.ExecuteOMP(chaosOpt(ctx))
				return err
			}}},
			Check: func() error { return resilience.CheckFinite(plan.Out.Vals) },
		})
		if rep.Outcome != resilience.OutcomeFailed || !errors.Is(rep.Err, resilience.ErrNonFinite) {
			t.Fatalf("report = %+v, want failed with ErrNonFinite", rep)
		}
	})
}
