package kernelreg

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/fcoo"
	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/levels"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config carries the experiment parameters a Workbench prepares variants
// with (the §5.1.2 settings harnesses already use).
type Config struct {
	// R is the factor-matrix column count (paper: 16).
	R int
	// BlockBits is log2 of the HiCOO block size (paper: 7 → B=128).
	BlockBits uint8
	// SegSize is the F-COO segment length (0 → fcoo.DefaultSegSize).
	SegSize int
	// Sched is the scheduling policy OMP instances run with.
	Sched parallel.Options
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		R:         core.DefaultR,
		BlockBits: hicoo.DefaultBlockBits,
		SegSize:   fcoo.DefaultSegSize,
		Sched:     parallel.Options{Schedule: parallel.Dynamic},
	}
}

// Workbench holds one input tensor plus lazily built, deterministically
// seeded operands (the seeds the measurement harness has always used) and
// simulated devices, shared by every variant prepared on it.
//
// A Workbench is safe for concurrent use: operand, reference, and device
// lazy-initialization is serialized by an internal mutex, X and every
// cached operand are read-only once built (Prepare paths clone before
// sorting), and device-backend executions serialize on a per-workbench
// device lock so concurrent trials cannot clobber each other's device
// context. Distinct Instances prepared from one workbench own their own
// output buffers and may Run concurrently; a single Instance is NOT
// concurrency-safe — callers (e.g. the pastad batcher) must serialize
// runs of the same Instance.
type Workbench struct {
	// X is the input tensor every variant computes on. It is read-only:
	// every Prepare and format conversion clones before sorting.
	X   *tensor.COO
	cfg Config

	// mu guards the lazy-initialized operand and device fields below.
	// The critical sections are pure construction (no kernel execution),
	// so holding mu never blocks on a running trial.
	mu    sync.Mutex
	y     *tensor.COO
	hx    *hicoo.HiCOO
	hy    *hicoo.HiCOO
	vecs  map[int]tensor.Vector
	ttm   map[int]*tensor.Matrix
	mats  []*tensor.Matrix
	csfs  map[string]*csf.CSF          // CSF trees keyed by mode order
	hiers map[string]*levels.Hierarchy // level hierarchies keyed by format+mode order
	dev   *gpusim.Device
	devs  []*gpusim.Device
	tiled *tensor.TileReader // v3 tile view of X for the OOC variants

	// refMu guards refs. References are computed outside the lock (the
	// computation itself Prepares and runs a serial instance, which takes
	// mu), so two goroutines may race to compute the same reference; both
	// produce the identical canon and the first store wins.
	refMu sync.Mutex
	refs  map[refKey]Canon

	// devMu serializes device-backend executions: the simulated devices
	// are shared per workbench and SetContext is a per-launch setting.
	devMu sync.Mutex
}

// NewWorkbench builds a workbench for x, normalizing zero Config fields
// to the paper defaults.
func NewWorkbench(x *tensor.COO, cfg Config) *Workbench {
	if cfg.R < 1 {
		cfg.R = core.DefaultR
	}
	if cfg.BlockBits < 1 || cfg.BlockBits > hicoo.MaxBlockBits {
		cfg.BlockBits = hicoo.DefaultBlockBits
	}
	if cfg.SegSize <= 0 {
		cfg.SegSize = fcoo.DefaultSegSize
	}
	return &Workbench{
		X:     x,
		cfg:   cfg,
		vecs:  make(map[int]tensor.Vector),
		ttm:   make(map[int]*tensor.Matrix),
		csfs:  make(map[string]*csf.CSF),
		hiers: make(map[string]*levels.Hierarchy),
		refs:  make(map[refKey]Canon),
	}
}

// R returns the factor-matrix column count.
func (wb *Workbench) R() int { return wb.cfg.R }

// BlockBits returns the HiCOO block-size exponent.
func (wb *Workbench) BlockBits() uint8 { return wb.cfg.BlockBits }

// SegSize returns the F-COO segment length.
func (wb *Workbench) SegSize() int { return wb.cfg.SegSize }

// Opt threads a trial context into the scheduling options so OMP kernels
// observe deadlines at chunk granularity.
func (wb *Workbench) Opt(ctx context.Context) parallel.Options {
	opt := wb.cfg.Sched
	opt.Ctx = ctx
	return opt
}

// Y is the second Tew operand: same non-zero pattern as X, fresh
// deterministic values (seed 12345, as the harness has always used).
func (wb *Workbench) Y() *tensor.COO {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.yLocked()
}

// yLocked builds Y under wb.mu (HY needs it while already holding the
// lock).
func (wb *Workbench) yLocked() *tensor.COO {
	if wb.y == nil {
		y := wb.X.Clone()
		rng := rand.New(rand.NewSource(12345))
		for i := range y.Vals {
			y.Vals[i] = tensor.Value(1 - rng.Float64())
		}
		wb.y = y
	}
	return wb.y
}

// HX is X converted to HiCOO, built once per workbench.
func (wb *Workbench) HX() *hicoo.HiCOO {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.hx == nil {
		sp := obs.Begin("hicoo.FromCOO", "X", obs.PhaseConvert, -1)
		wb.hx = hicoo.FromCOO(wb.X, wb.cfg.BlockBits)
		sp.End()
	}
	return wb.hx
}

// HY is Y converted to HiCOO.
func (wb *Workbench) HY() *hicoo.HiCOO {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.hy == nil {
		y := wb.yLocked()
		sp := obs.Begin("hicoo.FromCOO", "Y", obs.PhaseConvert, -1)
		wb.hy = hicoo.FromCOO(y, wb.cfg.BlockBits)
		sp.End()
	}
	return wb.hy
}

// Vec is the Ttv vector for one mode (seeded by mode number).
func (wb *Workbench) Vec(mode int) tensor.Vector {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if v, ok := wb.vecs[mode]; ok {
		return v
	}
	v := tensor.RandomVector(int(wb.X.Dims[mode]), rand.New(rand.NewSource(int64(mode))))
	wb.vecs[mode] = v
	return v
}

// TtmMat is the dense Ttm matrix for one mode (seed mode+100).
func (wb *Workbench) TtmMat(mode int) *tensor.Matrix {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if u, ok := wb.ttm[mode]; ok {
		return u
	}
	u := tensor.NewMatrix(int(wb.X.Dims[mode]), wb.cfg.R)
	u.Randomize(rand.New(rand.NewSource(int64(mode) + 100)))
	wb.ttm[mode] = u
	return u
}

// Mats are the Mttkrp factor matrices, one per mode (seed 777).
func (wb *Workbench) Mats() []*tensor.Matrix {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.mats == nil {
		rng := rand.New(rand.NewSource(777))
		mats := make([]*tensor.Matrix, wb.X.Order())
		for n := range mats {
			mats[n] = tensor.NewMatrix(int(wb.X.Dims[n]), wb.cfg.R)
			mats[n].Randomize(rng)
		}
		wb.mats = mats
	}
	return wb.mats
}

// Device is the workbench's simulated GPU, created on first use.
func (wb *Workbench) Device() *gpusim.Device {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.deviceLocked()
}

func (wb *Workbench) deviceLocked() *gpusim.Device {
	if wb.dev == nil {
		wb.dev = gpusim.NewDevice("kernelreg", 0)
	}
	return wb.dev
}

// Devices is the two-device set MultiGPU variants partition across.
func (wb *Workbench) Devices() []*gpusim.Device {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.devicesLocked()
}

func (wb *Workbench) devicesLocked() []*gpusim.Device {
	if wb.devs == nil {
		wb.devs = []*gpusim.Device{
			gpusim.NewDevice("kernelreg-0", 4),
			gpusim.NewDevice("kernelreg-1", 4),
		}
	}
	return wb.devs
}

// onDevice wraps a device kernel so the trial context reaches the
// device's cooperative-cancellation hook for exactly the call's duration.
// Device runs serialize on wb.devMu: the device (and its attached
// context) is a shared per-workbench resource, so two concurrent trials
// must not interleave SetContext calls.
func (wb *Workbench) onDevice(run func() error) func(context.Context) error {
	return func(ctx context.Context) error {
		wb.devMu.Lock()
		defer wb.devMu.Unlock()
		dev := wb.Device()
		dev.SetContext(ctx)
		defer dev.SetContext(nil)
		return run()
	}
}

// onDevices is onDevice for the MultiGPU device set.
func (wb *Workbench) onDevices(run func() error) func(context.Context) error {
	return func(ctx context.Context) error {
		wb.devMu.Lock()
		defer wb.devMu.Unlock()
		for _, d := range wb.Devices() {
			d.SetContext(ctx)
		}
		defer func() {
			for _, d := range wb.Devices() {
				d.SetContext(nil)
			}
		}()
		return run()
	}
}
