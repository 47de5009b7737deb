package accounting

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/sim"
)

// SampledAccountant is the ablation counterpart of Accountant: instead
// of consuming exact integrated intervals, it polls instantaneous
// per-app power on a fixed period and accumulates E ≈ P·Δt, the way
// utilization-sampling profilers (PowerTutor's 1 Hz loop and kin) work.
// State changes between samples are invisible to it, which is the error
// class — "as high as about 20 %" in the paper's related-work survey —
// that the exact meter avoids. Tests and the ablation benches compare
// the two on identical scenarios.
type SampledAccountant struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	period time.Duration
	ticker *sim.Ticker

	appJ    map[app.UID]float64
	screenJ float64
	systemJ float64

	// lastSample is the instant the accumulators last advanced to;
	// Stop flushes the partial period since it.
	lastSample sim.Time
}

// DefaultSamplePeriod mirrors PowerTutor's 1 Hz sampling.
const DefaultSamplePeriod = time.Second

// NewSampled builds a sampling accountant; Start begins polling.
func NewSampled(engine *sim.Engine, meter *hw.Meter, pm *app.PackageManager, period time.Duration) (*SampledAccountant, error) {
	if engine == nil || meter == nil || pm == nil {
		return nil, fmt.Errorf("accounting: nil dependency")
	}
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	return &SampledAccountant{
		engine: engine,
		meter:  meter,
		pm:     pm,
		period: period,
		appJ:   make(map[app.UID]float64),
	}, nil
}

// Start begins periodic sampling.
func (s *SampledAccountant) Start() {
	if s.ticker != nil {
		return
	}
	s.lastSample = s.engine.Now()
	s.ticker = s.engine.Every(s.period, "accounting.sample", s.sample)
}

// Stop halts sampling, first flushing the partial period since the last
// tick at the current instantaneous rates — without the flush, up to
// one period of estimated energy silently vanished at run end, skewing
// every sampled-vs-exact comparison on horizons that are not an exact
// multiple of the period. Stopping twice does not double-flush.
func (s *SampledAccountant) Stop() {
	if s.ticker == nil {
		return
	}
	s.ticker.Stop()
	s.ticker = nil
	if dt := s.engine.Now().Sub(s.lastSample); dt > 0 {
		s.accrueSpan(dt.Seconds())
		s.lastSample = s.engine.Now()
	}
}

// sample attributes one period of energy at the instantaneous rates.
func (s *SampledAccountant) sample() {
	s.accrueSpan(s.period.Seconds())
	s.lastSample = s.engine.Now()
}

// accrueSpan charges secs seconds at the current instantaneous rates —
// the defining approximation of a sampling profiler: state changes
// inside the span are invisible.
func (s *SampledAccountant) accrueSpan(secs float64) {
	s.pm.EachApp(func(a *app.App) {
		if p := s.meter.InstantAppPowerMW(a.UID); p > 0 {
			s.appJ[a.UID] += float64(p / 1000 * secs)
		}
	})
	s.screenJ += float64(s.meter.InstantScreenPowerMW() / 1000 * secs)
	s.systemJ += float64(s.meter.InstantSystemPowerMW() / 1000 * secs)
}

// AppJ reports the sampled estimate for one app.
func (s *SampledAccountant) AppJ(uid app.UID) float64 { return s.appJ[uid] }

// ScreenJ reports the sampled screen estimate.
func (s *SampledAccountant) ScreenJ() float64 { return s.screenJ }

// SystemJ reports the sampled platform-base estimate.
func (s *SampledAccountant) SystemJ() float64 { return s.systemJ }

// TotalJ reports the sampled total. It iterates the appJ ledger itself
// (in sorted UID order, so the float summation is reproducible), not
// pm.Apps(): an app uninstalled mid-run keeps the energy it accrued —
// walking the installed list silently dropped those joules from the
// total while AppJ still reported them.
func (s *SampledAccountant) TotalJ() float64 {
	uids := make([]app.UID, 0, len(s.appJ))
	for uid := range s.appJ {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	t := s.screenJ + s.systemJ
	for _, uid := range uids {
		t += s.appJ[uid]
	}
	return t
}

// RelativeError reports |sampled-exact|/exact for an exact reference
// (0 when the reference is 0).
func RelativeError(sampled, exact float64) float64 {
	if exact == 0 {
		if sampled == 0 {
			return 0
		}
		return 1
	}
	d := sampled - exact
	if d < 0 {
		d = -d
	}
	return d / exact
}
