package tap

import (
	"testing"
	"time"

	"icsdetect/internal/dataset"
	"icsdetect/internal/modbus"
)

// testRegisterMap is the gas-pipeline register layout, replicated locally:
// the tap package has no scenario dependency (scenario implementations
// import tap), so its tests pin an explicit layout instead.
func testRegisterMap() RegisterMap {
	return RegisterMap{
		Setpoint: 0, Gain: 1, ResetRate: 2, Deadband: 3, CycleTime: 4,
		Rate: 5, Mode: 6, Scheme: 7, Pump: 8, Solenoid: 9, Pressure: 10,
		MinRegisters: 10,
	}
}

// startStack brings up slave ← tap ← client and returns the pieces.
func startStack(t *testing.T) (*modbus.RegisterBank, *Proxy, *modbus.Client) {
	t.Helper()
	bank := modbus.NewRegisterBank(16, 4)
	srv := modbus.NewServer(bank, 4)
	slaveAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	proxy := New(slaveAddr.String(), testRegisterMap())
	tapAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	client, err := modbus.Dial(tapAddr, 4, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return bank, proxy, client
}

func TestProxyRelaysAndRecords(t *testing.T) {
	bank, proxy, client := startStack(t)

	// Write the parameter block through the tap.
	regs := []uint16{800, 45, 15, 5, 250, 2, 2, 0, 0, 0}
	if err := client.WriteMultipleRegisters(0, regs); err != nil {
		t.Fatal(err)
	}
	// The write must have reached the slave.
	snap := bank.Snapshot()
	if snap[0] != 800 || snap[6] != 2 {
		t.Fatalf("write not relayed: %v", snap[:10])
	}
	// Publish a pressure and read the full block back.
	if err := bank.StoreMeasurement(10, 812); err != nil {
		t.Fatal(err)
	}
	values, err := client.ReadHoldingRegisters(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if values[10] != 812 {
		t.Fatalf("read not relayed: %v", values)
	}

	pkgs := proxy.Drain()
	// write cmd, write ack, read cmd, read resp.
	if len(pkgs) != 4 {
		t.Fatalf("recorded %d packages, want 4", len(pkgs))
	}
	cmd := pkgs[0]
	if cmd.CmdResponse != 1 || cmd.Function != float64(modbus.FuncWriteMultipleRegs) {
		t.Errorf("first package = %+v", cmd)
	}
	if cmd.Setpoint != 8 || cmd.SystemMode != 2 {
		t.Errorf("decoded command fields: setpoint=%v mode=%v", cmd.Setpoint, cmd.SystemMode)
	}
	resp := pkgs[3]
	if resp.CmdResponse != 0 {
		t.Errorf("read response marked as command")
	}
	if resp.Pressure != 8.12 {
		t.Errorf("decoded pressure = %v, want 8.12", resp.Pressure)
	}
	// Timestamps monotone.
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i].Time < pkgs[i-1].Time {
			t.Error("timestamps decrease")
		}
	}
}

func TestProxySink(t *testing.T) {
	_, proxy, client := startStack(t)
	got := make(chan *dataset.Package, 16)
	proxy.SetSink(func(p *dataset.Package) { got <- p })

	if err := client.WriteSingleRegister(0, 700); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // command + ack
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("sink did not receive packages")
		}
	}
	// With a sink installed, Drain stays empty.
	if pkgs := proxy.Drain(); len(pkgs) != 0 {
		t.Errorf("drain returned %d packages despite sink", len(pkgs))
	}
}

// TestSetSinkFlushesBuffered: packages recorded before a sink is installed
// must be delivered to it on installation, in arrival order, ahead of live
// traffic — not stranded in the Drain buffer.
func TestSetSinkFlushesBuffered(t *testing.T) {
	_, proxy, client := startStack(t)

	// Two packages (command + ack) buffered with no sink installed.
	if err := client.WriteSingleRegister(0, 700); err != nil {
		t.Fatal(err)
	}
	got := make(chan *dataset.Package, 16)
	proxy.SetSink(func(p *dataset.Package) {
		// The flush runs outside the package lock, so a sink touching the
		// proxy (or blocking briefly) cannot stall frame relaying.
		proxy.Drain()
		got <- p
	})

	// The buffered pair arrives immediately, command first.
	first := <-got
	if first.CmdResponse != 1 {
		t.Errorf("flushed packages out of order: first has CmdResponse=%v", first.CmdResponse)
	}
	<-got
	if pkgs := proxy.Drain(); len(pkgs) != 0 {
		t.Errorf("drain returned %d packages after flush", len(pkgs))
	}

	// Live traffic keeps streaming to the same sink.
	if err := client.WriteSingleRegister(1, 45); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("sink did not receive live packages after flush")
		}
	}

	// Reverting to nil buffers again; a later sink flushes that too.
	proxy.SetSink(nil)
	if err := client.WriteSingleRegister(2, 9); err != nil {
		t.Fatal(err)
	}
	proxy.SetSink(func(p *dataset.Package) { got <- p })
	for i := 0; i < 2; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("re-installed sink did not flush buffered packages")
		}
	}
}

// TestRecorderAndSinkSimultaneous: a frame recorder and a package sink must
// be attachable around the same buffered startup traffic without stealing
// each other's copies — the recorder flush must not drain the package
// buffer (the regression), and live traffic must reach both in order.
func TestRecorderAndSinkSimultaneous(t *testing.T) {
	_, proxy, client := startStack(t)

	// Two packages (command + ack) buffered with nothing attached.
	if err := client.WriteSingleRegister(0, 700); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		fn    float64
		isCmd bool
		time  float64
	}
	frames := make(chan rec, 16)
	proxy.SetRecorder(func(raw []byte, isCmd bool, pkg *dataset.Package) {
		frame, err := modbus.DecodeTCP(raw)
		if err != nil {
			t.Errorf("recorded frame does not decode: %v", err)
			return
		}
		if float64(frame.PDU.Function) != pkg.Function {
			t.Errorf("frame function %d != package function %v", frame.PDU.Function, pkg.Function)
		}
		frames <- rec{fn: pkg.Function, isCmd: isCmd, time: pkg.Time}
	})

	// The recorder flush delivers the buffered pair, command first.
	first := <-frames
	if !first.isCmd {
		t.Error("flushed frames out of order: first is not the command")
	}
	second := <-frames
	if second.isCmd {
		t.Error("flushed frames out of order: second is the command")
	}
	if second.time < first.time {
		t.Error("recorded frame timestamps decrease")
	}

	// The package buffer must still hold both packages for the sink: the
	// recorder flush consumed only the frame view.
	pkgs := make(chan *dataset.Package, 16)
	proxy.SetSink(func(p *dataset.Package) { pkgs <- p })
	if p := <-pkgs; p.CmdResponse != 1 {
		t.Error("sink flush lost or reordered the buffered command package")
	}
	<-pkgs

	// Live traffic reaches both consumers.
	if err := client.WriteSingleRegister(1, 45); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-frames:
		case <-time.After(2 * time.Second):
			t.Fatal("recorder did not receive live frames")
		}
		select {
		case <-pkgs:
		case <-time.After(2 * time.Second):
			t.Fatal("sink did not receive live packages")
		}
	}
	if got := proxy.Drain(); len(got) != 0 {
		t.Errorf("drain returned %d packages with sink+recorder live", len(got))
	}

	// Detaching the recorder stops frame delivery but not the sink.
	proxy.SetRecorder(nil)
	if err := client.WriteSingleRegister(2, 9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-pkgs:
		case <-time.After(2 * time.Second):
			t.Fatal("sink stalled after recorder detach")
		}
	}
	select {
	case <-frames:
		t.Error("detached recorder still received frames")
	default:
	}
}

func TestRegisterMapPartialPayload(t *testing.T) {
	m := testRegisterMap()
	p := &dataset.Package{}
	m.decode(p, []byte{0x03, 0x20, 0x00, 0x2d}) // 800, 45: below MinRegisters
	if p.Setpoint != 0 {
		t.Error("partial payload decoded parameter fields")
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	proxy := New("127.0.0.1:1", testRegisterMap())
	if _, err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	proxy.Close()
	proxy.Close()
	if _, err := proxy.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close accepted")
	}
}
