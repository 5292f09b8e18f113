package netsim

// TCP Reno and DCTCP senders over the simulated fabric (§VII-A6, §VIII):
// slow start, congestion avoidance, triple-duplicate-ACK fast retransmit
// with fast recovery, retransmission timeouts with a 200µs floor and
// exponential backoff, ECN echo, and — for DCTCP — the fractional window
// law driven by the marked-byte estimate α.
//
// All sender handlers run on the source host's partition and all receiver
// handlers on the destination's; completion is decided on each side from
// its own state (cumAck at the sender, cumExpected at the receiver), never
// by peeking across.

const (
	dctcpG       = 1.0 / 16 // DCTCP EWMA gain
	maxRTO       = 100 * Millisecond
	initialCwndF = 10.0
)

// tcpStart opens a flow in slow start.
func (s *Sim) tcpStart(sh *Shard, f *flow) {
	f.snd.cwnd = initialCwndF
	if s.Cfg.InitialWindow > 0 {
		f.snd.cwnd = float64(s.Cfg.InitialWindow)
	}
	f.snd.ssthresh = 1 << 20
	f.snd.alphaWindowEnd = 0
	f.snd.timer.init(f.srcPart, func(sh *Shard) { s.tcpRTOFire(sh, f) })
	s.tcpTrySend(sh, f)
	s.tcpArmRTO(sh, f)
}

// tcpTrySend transmits while the congestion window allows. Sending with an
// idle retransmission timer re-arms it so tail losses cannot stall a flow.
func (s *Sim) tcpTrySend(sh *Shard, f *flow) {
	sent := false
	for f.snd.nextNew < f.total {
		inflight := float64(f.snd.nextNew - f.snd.cumAck)
		if inflight >= f.snd.cwnd {
			break
		}
		s.tcpSendData(sh, f, f.snd.nextNew, false)
		f.snd.nextNew++
		sent = true
	}
	if sent {
		s.tcpArmRTO(sh, f)
	}
}

func (s *Sim) tcpSendData(sh *Shard, f *flow, seq int32, retx bool) {
	s.pickRoute(sh, f)
	size := f.mss + HeaderBytes
	if int64(seq+1)*int64(f.mss) > f.spec.Bytes {
		rem := f.spec.Bytes - int64(seq)*int64(f.mss)
		if rem < 1 {
			rem = 1
		}
		size = int32(rem) + HeaderBytes
	}
	p := sh.newPacket()
	*p = Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Src,
		DstHost: f.spec.Dst,
		Seq:     seq,
		Bytes:   size,
		Kind:    KindData,
		Layer:   f.layer,
		Salt:    f.salt,
		Retx:    retx,
	}
	if retx {
		f.snd.retxCount++
	} else {
		f.snd.sendTime[seq] = sh.Now()
	}
	s.Net.sendFromHost(sh, p)
}

// tcpRecv dispatches data at the receiver and ACKs at the sender.
func (s *Sim) tcpRecv(sh *Shard, f *flow, host int32, p *Packet) {
	switch p.Kind {
	case KindData:
		if host != f.spec.Dst {
			return
		}
		s.tcpDataAtReceiver(sh, f, p)
	case KindAck:
		if host != f.spec.Src {
			return
		}
		s.tcpAckAtSender(sh, f, p)
	}
}

func (s *Sim) tcpDataAtReceiver(sh *Shard, f *flow, p *Packet) {
	if !f.received[p.Seq] {
		f.received[p.Seq] = true
		f.numReceived++
	}
	for f.cumExpected < f.total && f.received[f.cumExpected] {
		f.cumExpected++
	}
	if f.cumExpected == f.total {
		s.markDone(sh, f)
	}
	// Cumulative ACK; ECN echo reflects the CE mark of this data packet
	// (per-packet echo, sufficient for the DCTCP estimator).
	ack := sh.newPacket()
	*ack = Packet{
		FlowID:  f.id,
		SrcHost: f.spec.Dst,
		DstHost: f.spec.Src,
		Seq:     f.cumExpected,
		Bytes:   HeaderBytes,
		Kind:    KindAck,
		Layer:   s.controlLayer(f.spec.Dst, f.spec.Src),
		ECN:     p.ECN,
	}
	s.Net.sendFromHost(sh, ack)
}

func (s *Sim) tcpAckAtSender(sh *Shard, f *flow, ack *Packet) {
	snd := &f.snd
	cum := ack.Seq
	switch {
	case cum > snd.cumAck:
		newly := cum - snd.cumAck
		// RTT sample from the highest newly acked original transmission.
		if st := snd.sendTime[cum-1]; st > 0 {
			s.tcpUpdateRTT(f, sh.Now()-st)
		}
		snd.cumAck = cum
		snd.dupacks = 0
		if snd.inRecovery {
			if cum >= snd.recover {
				snd.inRecovery = false
				snd.cwnd = snd.ssthresh
			} else {
				// NewReno partial ACK: the next hole is at cum —
				// retransmit it immediately instead of waiting for an RTO.
				s.tcpSendData(sh, f, cum, true)
			}
		}
		if !snd.inRecovery {
			if snd.cwnd < snd.ssthresh {
				snd.cwnd += float64(newly) // slow start
			} else {
				snd.cwnd += float64(newly) / snd.cwnd // congestion avoidance
			}
		}
		// ECN response.
		if s.Cfg.Transport == TransportDCTCP {
			snd.totalAcked += int64(newly)
			if ack.ECN {
				snd.ceAcked += int64(newly)
			}
			if cum >= snd.alphaWindowEnd {
				frac := 0.0
				if snd.totalAcked > 0 {
					frac = float64(snd.ceAcked) / float64(snd.totalAcked)
				}
				snd.alpha = (1-dctcpG)*snd.alpha + dctcpG*frac
				if frac > 0 {
					snd.cwnd = snd.cwnd * (1 - snd.alpha/2)
					if snd.cwnd < 1 {
						snd.cwnd = 1
					}
					snd.ssthresh = snd.cwnd
					// A window cut is a natural flowlet boundary: FatPaths
					// re-randomizes the layer here (§VIII-A1).
					if s.Cfg.LB == LBFatPaths {
						s.reselectLayer(f)
					}
				}
				snd.ceAcked, snd.totalAcked = 0, 0
				snd.alphaWindowEnd = snd.nextNew
			}
		} else if ack.ECN && cum > snd.lastCutSeq {
			// Reno+ECN: halve once per window on echoed congestion.
			snd.ssthresh = snd.cwnd / 2
			if snd.ssthresh < 2 {
				snd.ssthresh = 2
			}
			snd.cwnd = snd.ssthresh
			snd.lastCutSeq = snd.nextNew
			if s.Cfg.LB == LBFatPaths {
				s.reselectLayer(f)
			}
		}
		s.tcpArmRTO(sh, f)
	case cum == snd.cumAck && cum < f.total:
		snd.dupacks++
		if snd.dupacks == 3 && !snd.inRecovery {
			// Fast retransmit + fast recovery.
			snd.ssthresh = snd.cwnd / 2
			if snd.ssthresh < 2 {
				snd.ssthresh = 2
			}
			snd.cwnd = snd.ssthresh + 3
			snd.inRecovery = true
			snd.recover = snd.nextNew
			s.tcpSendData(sh, f, cum, true)
			if s.Cfg.LB == LBFatPaths {
				s.reselectLayer(f) // loss signals congestion on this layer
			}
			s.tcpArmRTO(sh, f)
		} else if snd.inRecovery {
			snd.cwnd++ // window inflation per dupack
		}
	}
	s.tcpTrySend(sh, f)
}

func (s *Sim) tcpUpdateRTT(f *flow, sample Time) {
	snd := &f.snd
	if snd.srtt == 0 {
		snd.srtt = sample
		snd.rttvar = sample / 2
	} else {
		diff := snd.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		snd.rttvar = (3*snd.rttvar + diff) / 4
		snd.srtt = (7*snd.srtt + sample) / 8
	}
	snd.rto = snd.srtt + 4*snd.rttvar
	if snd.rto < s.Cfg.RTOMin {
		snd.rto = s.Cfg.RTOMin
	}
	if snd.rto > maxRTO {
		snd.rto = maxRTO
	}
}

// tcpArmRTO (re)arms the retransmission timer on the sender's partition.
func (s *Sim) tcpArmRTO(sh *Shard, f *flow) {
	rto := f.snd.rto
	if rto <= 0 {
		rto = 1 * Millisecond
	}
	f.snd.timer.arm(sh, rto)
}

func (s *Sim) tcpRTOFire(sh *Shard, f *flow) {
	snd := &f.snd
	// Completion is judged from sender state alone (cumAck): the receiver's
	// done flag lives on another partition.
	if snd.cumAck >= f.total {
		return
	}
	if snd.cumAck >= snd.nextNew {
		// Nothing outstanding; timer idles until the next send.
		return
	}
	// Timeout: multiplicative backoff, window collapse, go-back-N restart
	// (retransmit everything from the first hole, as SACK-less Reno does;
	// duplicates are discarded by the receiver).
	snd.timeouts++
	snd.ssthresh = snd.cwnd / 2
	if snd.ssthresh < 2 {
		snd.ssthresh = 2
	}
	snd.cwnd = 1
	snd.dupacks = 0
	snd.inRecovery = false
	snd.rto *= 2
	if snd.rto > maxRTO {
		snd.rto = maxRTO
	}
	snd.retxCount += int64(snd.nextNew - snd.cumAck)
	snd.nextNew = snd.cumAck
	s.tcpTrySend(sh, f)
	if s.Cfg.LB == LBFatPaths {
		s.reselectLayer(f)
	}
	s.tcpArmRTO(sh, f)
}
