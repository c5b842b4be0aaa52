package btrx

import (
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
)

func TestReceiveEDRCleanLoopback(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	for _, pt := range []bt.EDRPacketType{bt.EDR2DH1, bt.EDR3DH1, bt.EDR2DH5} {
		payload := make([]byte, pt.MaxPayload()/2)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		pkt := &bt.EDRPacket{Type: pt, LTAddr: 1, Payload: payload, Clock: 16}
		theta, _, err := pkt.AirPhase(dev, 20)
		if err != nil {
			t.Fatal(err)
		}
		iq := dsp.PhaseToIQ(theta, 1)
		dsp.Mix(iq, 2e6, 20e6) // carrier 2 MHz off the stream center
		ch := channel.Default(18, 1.5)
		rx, err := ch.Apply(iq)
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := NewReceiver(Sniffer, 2e6, dev)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rcv.ReceiveEDR(rx, 16, pt.Rate())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Detected || !rep.Result.OK {
			t.Fatalf("%v: decode failed: %+v", pt, rep)
		}
		if string(rep.Result.Payload) != string(payload) {
			t.Fatalf("%v: payload corrupted", pt)
		}
	}
}

func TestReceiveEDRWrongRateFails(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.EDRPacket{Type: bt.EDR3DH1, LTAddr: 1, Payload: []byte("hello edr"), Clock: 4}
	theta, _, err := pkt.AirPhase(dev, 20)
	if err != nil {
		t.Fatal(err)
	}
	iq := dsp.PhaseToIQ(theta, 1)
	ch := channel.Default(18, 1.5)
	rx, _ := ch.Apply(iq)
	rcv, _ := NewReceiver(Sniffer, 0, dev)
	rep, err := rcv.ReceiveEDR(rx, 4, bt.EDR2) // wrong demod rate
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.OK {
		t.Fatal("decoded an 8DPSK payload as DQPSK")
	}
}
