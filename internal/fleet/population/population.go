// Package population composes realistic fleet mixtures: instead of N
// clones of one device running one scenario, a Population is a weighted
// set of cohorts — a hardware model (power profile + battery pack)
// crossed with a corpus cell (user archetype × attack variant) — and a
// deterministic assignment of devices to cohorts.
//
// The package exists for the streaming fleet path: a 100k-device run is
// only meaningful as a memory or throughput benchmark if the devices
// are heterogeneous the way a real install base is. Assignment is a
// pure function of (fleet seed, device index), so any single device of
// a population run can be re-created in isolation, and the fleet's
// merged summary stays byte-identical across worker and shard counts.
package population

import (
	"fmt"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/scenario"
)

// Hardware is a named power model plus battery pack.
type Hardware struct {
	Name     string
	Profile  hw.Profile
	BatteryJ float64
}

// Cohort is one slice of the population: Weight devices out of the
// population's total weight run this hardware through this corpus cell.
type Cohort struct {
	Name     string
	Weight   int
	Hardware Hardware
	Cell     corpus.Cell
}

// Population is a weighted cohort mixture.
type Population struct {
	Cohorts []Cohort
	// Horizon is each device's script span; zero means corpus.MinHorizon
	// — the shortest span the generator accepts, which keeps 100k-device
	// runs tractable while still exercising the diurnal charge window.
	Horizon time.Duration
}

// Default returns the standard mixture: four benign archetypes over two
// hardware tiers, plus a small compromised tail running the
// population-scale attack variants. Weights are percentages.
func Default() Population {
	flagship := Hardware{Name: "flagship-dvfs", Profile: hw.Nexus4DVFS(), BatteryJ: hw.NexusBatteryJ}
	midrange := Hardware{Name: "midrange", Profile: hw.Nexus4(), BatteryJ: hw.NexusBatteryJ}
	budget := Hardware{Name: "budget", Profile: hw.Nexus4(), BatteryJ: hw.NexusBatteryJ * 0.75}
	return Population{
		Cohorts: []Cohort{
			{Name: "commuter-flagship", Weight: 25, Hardware: flagship,
				Cell: corpus.Cell{Archetype: corpus.ArchCommuter, Variant: corpus.VarBenign}},
			{Name: "gamer-flagship", Weight: 15, Hardware: flagship,
				Cell: corpus.Cell{Archetype: corpus.ArchGamer, Variant: corpus.VarBenign}},
			{Name: "background-midrange", Weight: 20, Hardware: midrange,
				Cell: corpus.Cell{Archetype: corpus.ArchBackgroundHeavy, Variant: corpus.VarBenign}},
			{Name: "idle-budget", Weight: 30, Hardware: budget,
				Cell: corpus.Cell{Archetype: corpus.ArchIdleMostly, Variant: corpus.VarBenign}},
			{Name: "compromised-intermittent", Weight: 6, Hardware: midrange,
				Cell: corpus.Cell{Archetype: corpus.ArchCommuter, Variant: corpus.VarIntermittent}},
			{Name: "compromised-charging", Weight: 4, Hardware: budget,
				Cell: corpus.Cell{Archetype: corpus.ArchIdleMostly, Variant: corpus.VarChargingAware}},
		},
	}
}

// Validate rejects empty or non-positive-weight populations.
func (p *Population) Validate() error {
	if len(p.Cohorts) == 0 {
		return fmt.Errorf("population: no cohorts")
	}
	for i, c := range p.Cohorts {
		if c.Weight <= 0 {
			return fmt.Errorf("population: cohort %d (%s) weight %d not positive", i, c.Name, c.Weight)
		}
	}
	if p.Horizon != 0 && p.Horizon < corpus.MinHorizon {
		return fmt.Errorf("population: horizon %v below corpus minimum %v", p.Horizon, corpus.MinHorizon)
	}
	return nil
}

func (p *Population) totalWeight() int {
	total := 0
	for _, c := range p.Cohorts {
		total += c.Weight
	}
	return total
}

func (p *Population) horizon() time.Duration {
	if p.Horizon != 0 {
		return p.Horizon
	}
	return corpus.MinHorizon
}

// Assign returns the cohort index for device i of a fleet rooted at
// seed. It hashes (seed, i) through the corpus's SplitMix64 chain and
// reduces modulo the total weight, so the draw is uniform over weights,
// independent per device, and reproducible without running the rest of
// the fleet.
func (p *Population) Assign(seed int64, i int) int {
	total := p.totalWeight()
	if total <= 0 {
		return 0
	}
	// rep -1 keeps the draw disjoint from the ScriptSeed(seed, ·, i)
	// chain used for the device's script below.
	draw := int(uint64(corpus.ScriptSeed(seed, i, -1)) % uint64(total))
	for ci, c := range p.Cohorts {
		if draw < c.Weight {
			return ci
		}
		draw -= c.Weight
	}
	return len(p.Cohorts) - 1
}

// FleetSpec builds a streaming fleet.Spec over the population: device i
// draws its cohort from Assign(seed, i), Configure installs the
// cohort's hardware, and Scenario generates and applies the cohort
// cell's corpus script from a per-device seed. Callers wanting
// per-device results set Stream on the returned spec.
func (p *Population) FleetSpec(devices, workers, shards int, seed int64) (fleet.Spec, error) {
	if err := p.Validate(); err != nil {
		return fleet.Spec{}, err
	}
	params := corpus.Params{Horizon: p.horizon()}
	return fleet.Spec{
		Devices: devices,
		Workers: workers,
		Shards:  shards,
		Seed:    seed,
		Config: device.Config{
			EAndroid: true,
			Policy:   accounting.BatteryStats,
			Checks:   &check.Options{},
		},
		Configure: func(i int, cfg *device.Config) {
			h := p.Cohorts[p.Assign(seed, i)].Hardware
			cfg.Profile = h.Profile
			cfg.BatteryJ = h.BatteryJ
		},
		Scenario: func(i int, dev *device.Device) error {
			ci := p.Assign(seed, i)
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			script, err := corpus.Generate(p.Cohorts[ci].Cell,
				corpus.ScriptSeed(seed, ci, i), params)
			if err != nil {
				return err
			}
			return script.Apply(w)
		},
	}, nil
}
