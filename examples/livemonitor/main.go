// Live monitor: a real Modbus/TCP control loop over localhost with an
// in-path network tap feeding the anomaly detector.
//
// Topology:
//
//	master ──TCP──▶ tap proxy ──TCP──▶ slave (plant + PID controller)
//	                   │
//	                   ▼ decoded packages
//	               detector
//
// Phase 1 observes attack-free traffic and trains the two-level framework
// on it ("air-gapped" baseline, paper §IV). Phase 2 lets an attacker client
// inject malicious parameter and state commands through the same proxy; the
// concurrent detection engine classifies every package in flight, one
// stream per slave unit.
//
//	go run ./examples/livemonitor
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/mathx"
	"icsdetect/internal/modbus"
	"icsdetect/internal/signature"
	"icsdetect/internal/tap"
)

// Register layout shared by master, slave and tap (mirrors the simulator).
const (
	regSetpoint = iota
	regGain
	regResetRate
	regDeadband
	regCycleTime
	regRate
	regMode
	regScheme
	regPump
	regSolenoid
	regPressure
	numRegs
)

const unitID = 4

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// ---- Slave: register bank + plant + PID controller --------------------
	bank := modbus.NewRegisterBank(numRegs, 4)
	bank.MarkReadOnly(regPressure)
	rng := mathx.NewRNG(11)
	plant, err := gaspipeline.NewPlant(gaspipeline.DefaultPlantConfig(), rng.Split())
	if err != nil {
		return err
	}
	initial := gaspipeline.ControllerState{
		Setpoint: 8, Gain: 0.45, ResetRate: 0.15, Deadband: 0.05,
		CycleTime: 0.25, Rate: 0.02, Mode: gaspipeline.ModeAuto,
	}
	ctrl, err := gaspipeline.NewController(initial, 20)
	if err != nil {
		return err
	}
	writeState(bank, initial)

	// The device loop: applies written registers, steps the plant, and
	// publishes the pressure measurement. It runs accelerated (every 5 ms
	// simulates one 250 ms control cycle).
	stopPlant := make(chan struct{})
	plantDone := make(chan struct{})
	go func() {
		defer close(plantDone)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopPlant:
				return
			case <-ticker.C:
				st := readState(bank)
				ctrl.ApplyUnchecked(st)
				measured := plant.Measure()
				ctrl.Actuate(plant, measured)
				plant.Step(0.25)
				if err := bank.StoreMeasurement(regPressure, uint16(mathx.Clamp(measured*100, 0, 65535))); err != nil {
					return
				}
			}
		}
	}()

	server := modbus.NewServer(bank, unitID)
	slaveAddr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()

	// ---- Tap proxy ---------------------------------------------------------
	monitor := tap.New(slaveAddr.String(), gaspipeline.Registers())
	tapAddr, err := monitor.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer monitor.Close()

	// ---- Master ------------------------------------------------------------
	master, err := modbus.Dial(tapAddr, unitID, 2*time.Second)
	if err != nil {
		return err
	}
	defer master.Close()

	operator := newOperator(initial, rng.Split())
	pollCycle := func(st gaspipeline.ControllerState) error {
		if err := master.WriteMultipleRegisters(0, stateRegs(st)); err != nil {
			return err
		}
		if _, err := master.ReadHoldingRegisters(0, numRegs); err != nil {
			return err
		}
		return nil
	}

	// ---- Phase 1: observe clean traffic and train --------------------------
	fmt.Println("phase 1: observing attack-free traffic …")
	const trainCycles = 1500
	for i := 0; i < trainCycles; i++ {
		if err := pollCycle(operator.step(plant)); err != nil {
			return fmt.Errorf("poll cycle %d: %w", i, err)
		}
	}
	clean := monitor.Drain()
	fmt.Printf("captured %d clean packages, training …\n", len(clean))

	split, err := dataset.MakeSplit(&dataset.Dataset{Packages: clean},
		dataset.SplitConfig{TrainFrac: 0.75, ValidationFrac: 0.24})
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Granularity = signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
	}
	cfg.Hidden = []int{32, 32}
	cfg.Fit.Epochs = 8
	cfg.Fit.BatchSize = 4
	fw, report, err := core.Train(split, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("detector ready: |S|=%d k=%d errv=%.4f\n",
		report.Signatures, report.ChosenK, report.PackageErrv)

	// ---- Phase 2: live detection with an attacker --------------------------
	fmt.Println("phase 2: live detection with attacker in the loop …")
	attacker, err := modbus.Dial(tapAddr, unitID, 2*time.Second)
	if err != nil {
		return err
	}
	defer attacker.Close()

	// The engine shards streams across workers and micro-batches the LSTM
	// steps; this loop has a single slave unit, so it exercises the
	// single-stream path with verdicts identical to a sequential session.
	var alerts atomic.Int64
	eng, err := engine.New(fw, engine.Config{}, func(r engine.Result) {
		if r.Verdict.Anomaly {
			if n := alerts.Add(1); n <= 8 {
				fmt.Printf("  ALERT %-12s stream=%s signature=%s\n",
					r.Verdict.Level, r.Stream, r.Verdict.Signature)
			}
		}
	})
	if err != nil {
		return err
	}
	streamKeys := map[int]string{}
	classifyPending := func() error {
		for _, p := range monitor.Drain() {
			key, ok := streamKeys[int(p.Address)]
			if !ok {
				key = fmt.Sprintf("unit-%d", int(p.Address))
				streamKeys[int(p.Address)] = key
			}
			if err := eng.SubmitBatchFor(nil, key, []*dataset.Package{p}); err != nil {
				return err
			}
		}
		return nil
	}

	atkRng := rng.Split()
	const liveCycles = 400
	for i := 0; i < liveCycles; i++ {
		if err := pollCycle(operator.step(plant)); err != nil {
			return err
		}
		// Every ~25 cycles the attacker injects a malicious command.
		if i%25 == 24 {
			mal := readState(bank)
			if atkRng.Bernoulli(0.5) {
				mal.Setpoint = atkRng.Range(0, 18) // MPCI-style parameter change
			} else {
				mal.Mode, mal.Pump = gaspipeline.ModeManual, 1 // MSCI-style state change
			}
			if err := attacker.WriteMultipleRegisters(0, stateRegs(mal)); err != nil {
				return err
			}
			// Operator restores on the next poll.
			if err := pollCycle(operator.state); err != nil {
				return err
			}
		}
		if err := classifyPending(); err != nil {
			return err
		}
	}
	if err := classifyPending(); err != nil {
		return err
	}
	eng.Stop()

	close(stopPlant)
	<-plantDone
	st := eng.Stats()
	fmt.Printf("live phase: %d packages classified on %d streams, %d alerts raised (%.1f pkg/batch)\n",
		st.Packages, st.Streams, st.Anomalies(), st.MeanBatch())
	if st.Anomalies() == 0 {
		return fmt.Errorf("expected the injected attacks to raise alerts")
	}
	return nil
}

// ---- operator model --------------------------------------------------------

type operator struct {
	state gaspipeline.ControllerState
	rng   *mathx.RNG
}

func newOperator(initial gaspipeline.ControllerState, rng *mathx.RNG) *operator {
	return &operator{state: initial, rng: rng}
}

// step occasionally moves the setpoint among legal values, like the
// simulator's operator.
func (o *operator) step(plant *gaspipeline.Plant) gaspipeline.ControllerState {
	if o.rng.Bernoulli(0.02) {
		legal := []float64{6, 7, 8, 9, 10}
		o.state.Setpoint = legal[o.rng.Intn(len(legal))]
	}
	return o.state
}

// ---- register codec ---------------------------------------------------------

func stateRegs(st gaspipeline.ControllerState) []uint16 {
	return []uint16{
		uint16(st.Setpoint * 100), uint16(st.Gain * 100), uint16(st.ResetRate * 100),
		uint16(st.Deadband * 100), uint16(st.CycleTime * 1000), uint16(st.Rate * 100),
		uint16(st.Mode), uint16(st.Scheme), uint16(st.Pump), uint16(st.Solenoid),
	}
}

func writeState(bank *modbus.RegisterBank, st gaspipeline.ControllerState) {
	for i, v := range stateRegs(st) {
		if err := bank.StoreMeasurement(uint16(i), v); err != nil {
			panic(err)
		}
	}
}

func readState(bank *modbus.RegisterBank) gaspipeline.ControllerState {
	regs := bank.Snapshot()
	return gaspipeline.ControllerState{
		Setpoint:  float64(regs[regSetpoint]) / 100,
		Gain:      float64(regs[regGain]) / 100,
		ResetRate: float64(regs[regResetRate]) / 100,
		Deadband:  float64(regs[regDeadband]) / 100,
		CycleTime: float64(regs[regCycleTime]) / 1000,
		Rate:      float64(regs[regRate]) / 100,
		Mode:      int(regs[regMode]),
		Scheme:    int(regs[regScheme]),
		Pump:      int(regs[regPump]),
		Solenoid:  int(regs[regSolenoid]),
	}
}
