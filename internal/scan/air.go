package scan

import (
	"fmt"

	"bluefi/internal/btrx"
	"bluefi/internal/channel"
)

// Air is the one transmit → channel → receiver chain: ch scales c.IQ,
// the transmit waveform, to the received power and buries it in noise,
// intf (when non-nil) superimposes background traffic, and rcv
// demodulates the result along c.Kind's receive path. The library's
// Simulate, the evaluation figures and the examples all go through it;
// an interference channel plugs in as intf.
//
// The receiver is the caller's: it carries the tuning (c.OffsetHz is
// not read), and its front-end noise source advances from call to call,
// so a series over one receiver draws fresh noise per packet where the
// Scanner reseeds a new receiver per capture. Air follows no
// connection, so a KindBLEData capture fails.
func Air(rcv *btrx.Receiver, ch channel.Model, intf *channel.Interferer, c Capture) Outcome {
	rx, err := ch.Apply(c.IQ)
	if err != nil {
		return Outcome{Kind: c.Kind, Channel: c.Channel, Err: err}
	}
	if intf != nil {
		intf.AddTo(rx)
	}
	c.IQ = rx
	return demodulate(rcv, c, nil)
}

// link is a followed BLE connection: the access address and CRC init
// KindBLEData captures decode against.
type link struct{ aa, crcInit uint32 }

// demodulate routes a capture through its btrx receive path and maps
// the report onto an Outcome (Seq left zero). follow is the connection
// data captures decode against, nil when none is followed.
func demodulate(rcv *btrx.Receiver, c Capture, follow *link) Outcome {
	out := Outcome{Kind: c.Kind, Channel: c.Channel}
	var rep btrx.Report
	var err error
	switch c.Kind {
	case KindBLEAdv:
		rep, err = rcv.ReceiveBLE(c.IQ, c.Channel)
	case KindBLEData:
		if follow == nil {
			err = fmt.Errorf("scan: data capture on channel %d with no followed connection", c.Channel)
			break
		}
		rep, err = rcv.ReceiveBLEData(c.IQ, follow.aa, c.Channel, follow.crcInit)
	case KindBR:
		rep, err = rcv.ReceiveBR(c.IQ, c.Clk)
	case KindEDR:
		rep, err = rcv.ReceiveEDR(c.IQ, c.Clk, c.EDRRate)
	default:
		err = fmt.Errorf("scan: unknown capture kind %d", int(c.Kind))
	}
	if err != nil {
		out.Err = err
		return out
	}

	out.Detected = rep.Detected
	out.Decoded = rep.Result.OK
	out.CRCError = rep.Result.CRCError
	out.HeaderError = rep.Result.HeaderError
	out.SyncErrors = rep.SyncErrors
	out.RSSIdBm = rep.RSSIdBm
	out.Adv = rep.Adv
	out.Data = rep.Data
	switch {
	case rep.Data != nil && rep.Result.OK:
		out.Payload = rep.Data.Payload
	case rep.Adv != nil:
		out.Payload = rep.Adv.Data
	default:
		out.Payload = rep.Result.Payload
	}
	return out
}
