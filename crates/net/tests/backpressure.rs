//! NI back-pressure regression test (the mesh analogue of the queue
//! wrap-around tests in `tamsim-mdp`): fill a remote node's low-priority
//! queue to *exact* capacity, keep the traffic coming until the whole
//! path — receive queue, link buffer, inject queue — is full and the
//! sender's `SEND` stalls; assert nothing is dropped and nothing panics,
//! then let the receiver retire messages and assert the sender resumes
//! and every message arrives in order.

use tamsim_core::NetInfo;
use tamsim_mdp::{
    CodeImage, DecodedImage, MOp, Machine, MachineConfig, NoHooks, Priority, SendSrc, Step, Word,
};
use tamsim_net::{
    node_tag, Fabric, MeshTopology, NetConfig, NoNetHooks, NodePort, Placement, PlacementPolicy,
};
use tamsim_trace::MemoryMap;

const MSG_WORDS: usize = 4;
const SENDS: usize = 12;
/// Receiver low-queue capacity: exactly two messages.
const RECV_QUEUE_WORDS: u32 = (2 * MSG_WORDS) as u32;

/// Routing facts with handler addresses no test message uses, so every
/// message routes by its locus word.
fn net_info() -> NetInfo {
    NetInfo {
        falloc_addr: 1,
        ffree_addr: 2,
        done_addr: 3,
        q_head: 0,
        q_tail: 0,
        frame_bump: 0,
        heap_bump: 0,
        heap_bump_init: 0,
        freelist_base: 0,
        desc_ptrs: 0,
    }
}

struct Rig {
    img: DecodedImage,
    sender_entry: u32,
}

/// One image shared by both nodes: a receive handler that immediately
/// retires its message, and a sender program of `SENDS` back-to-back
/// low-priority sends to node 1, each tagged with its sequence number.
fn build_rig() -> Rig {
    let map = MemoryMap::default();
    let mut img = CodeImage::new(&map);
    let handler = img.next_user();
    img.push_user(MOp::Suspend);
    let sender_entry = img.next_user();
    let locus = node_tag(1) | map.frame_base;
    for seq in 0..SENDS {
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![
                SendSrc::Imm(Word::from_addr(handler)),
                SendSrc::Imm(Word::from_addr(locus)),
                SendSrc::Imm(Word::from_i64(seq as i64)),
                SendSrc::Imm(Word::from_i64(0x5E17)),
            ],
        });
    }
    img.push_user(MOp::Halt);
    Rig {
        img: DecodedImage::decode(&img),
        sender_entry,
    }
}

#[test]
fn remote_queue_backpressure_stalls_sender_and_resumes() {
    let rig = build_rig();
    let topo = MeshTopology {
        width: 2,
        height: 1,
    };
    // Tiny fabric buffers so the stall chain is short and exact.
    let cfg = NetConfig {
        hop_latency: 1,
        link_bandwidth: 4,
        link_capacity: MSG_WORDS as u32,
        inject_capacity: MSG_WORDS as u32,
        recv_capacity: MSG_WORDS as u32,
    };
    let mut fabric = Fabric::new(topo, cfg);
    let mut placement = Placement::new(PlacementPolicy::RoundRobin, 2);
    let info = net_info();

    let mut sender = Machine::new(MachineConfig::default(), &rig.img);
    sender.start_low(rig.sender_entry);
    let mut receiver = Machine::new(
        MachineConfig {
            queue_words: [RECV_QUEUE_WORDS, RECV_QUEUE_WORDS],
            ..MachineConfig::default()
        },
        &rig.img,
    );

    // ---- Phase 1: the receiver never runs. Drive the sender (retrying
    // blocked sends every cycle, as the machine does) until the path
    // reaches steady state: remote queue full, fabric full, sender
    // stalled. ----
    let mut nh = NoNetHooks;
    let mut sender_done = false;
    let mut last_outcome = Step::Idle;
    for _ in 0..100u64 {
        if !sender_done {
            let mut port = NodePort {
                node: 0,
                info,
                fabric: &mut fabric,
                placement: &mut placement,
                hooks: &mut nh,
                serve: None,
                steal: None,
            };
            last_outcome = sender.step(&mut NoHooks, &mut port).expect("sender failed");
            if matches!(last_outcome, Step::Halted(_)) {
                sender_done = true;
            }
        }
        fabric.tick();
        if let Some(msg) = fabric.ready_recv(1) {
            let pri = msg.pri;
            let words = msg.words.clone();
            if receiver.try_deliver(pri, &words, &mut NoHooks) {
                fabric.pop_recv(1);
            } else {
                fabric.note_deliver_stall(1);
            }
        }
    }
    assert_eq!(
        last_outcome,
        Step::Blocked,
        "sender should be stalled at steady state"
    );
    assert!(!sender_done, "sender finished before the path could fill");

    // The remote low queue is full to *exact* capacity — begin_enqueue
    // refused the next delivery without dropping it.
    let q = receiver.queue(Priority::Low);
    assert_eq!(q.used_words(), RECV_QUEUE_WORDS);
    assert!(
        fabric.stats().deliver_stalls > 0,
        "NI never held a delivery"
    );
    let sends_before = sender.stats(tamsim_mdp::HaltReason::Quiescent).sends;

    // A blocked send has no side effects: re-stepping while the path is
    // still full stays Blocked and counts nothing.
    for _ in 0..5 {
        let mut port = NodePort {
            node: 0,
            info,
            fabric: &mut fabric,
            placement: &mut placement,
            hooks: &mut nh,
            serve: None,
            steal: None,
        };
        assert_eq!(sender.step(&mut NoHooks, &mut port).unwrap(), Step::Blocked);
    }
    assert_eq!(
        sender.stats(tamsim_mdp::HaltReason::Quiescent).sends,
        sends_before,
        "blocked sends must not count"
    );

    // Message conservation while stalled: everything injected is either
    // delivered into the remote queue or still buffered in the fabric.
    let st = fabric.stats();
    assert_eq!(
        st.injected_msgs,
        st.delivered_msgs + fabric.in_flight_msgs(),
        "messages lost under back-pressure"
    );

    // ---- Phase 2: the receiver starts retiring messages; the sender
    // must resume and every message must arrive, in order. ----
    let mut received = 0u64;
    let mut resumed = false;
    for _ in 0..2000u64 {
        {
            let mut port = NodePort {
                node: 0,
                info,
                fabric: &mut fabric,
                placement: &mut placement,
                hooks: &mut nh,
                serve: None,
                steal: None,
            };
            match sender.step(&mut NoHooks, &mut port).expect("sender failed") {
                Step::Ran => resumed = true,
                Step::Halted(_) => sender_done = true,
                Step::Blocked | Step::Idle => {}
            }
        }
        {
            // The receiver dispatches one message and suspends, retiring
            // it and reopening queue space — the wake-up the NI stall was
            // waiting for.
            let mut port = NodePort {
                node: 1,
                info,
                fabric: &mut fabric,
                placement: &mut placement,
                hooks: &mut nh,
                serve: None,
                steal: None,
            };
            if receiver
                .step(&mut NoHooks, &mut port)
                .expect("receiver failed")
                == Step::Ran
            {
                received += 1;
            }
        }
        fabric.tick();
        if let Some(msg) = fabric.ready_recv(1) {
            let pri = msg.pri;
            let words = msg.words.clone();
            if receiver.try_deliver(pri, &words, &mut NoHooks) {
                fabric.pop_recv(1);
            } else {
                fabric.note_deliver_stall(1);
            }
        }
        if sender_done && received == SENDS as u64 && fabric.is_empty() {
            break;
        }
    }
    assert!(resumed, "sender never resumed after the receiver drained");
    assert!(sender_done, "sender never finished");
    assert_eq!(
        received, SENDS as u64,
        "messages dropped under back-pressure"
    );
    assert!(fabric.is_empty());
    let st = fabric.stats();
    assert_eq!(st.injected_msgs, st.delivered_msgs);
    assert_eq!(
        sender.stats(tamsim_mdp::HaltReason::Explicit).sends,
        SENDS as u64
    );
    // Every dispatch on the receiver retired one message in FIFO order;
    // dispatches happened exactly SENDS times.
    assert_eq!(
        receiver.stats(tamsim_mdp::HaltReason::Quiescent).dispatches[Priority::Low.index()],
        SENDS as u64
    );
}

/// Regression: deliver stalls must be attributed to the *destination*
/// node, not counted globally. Replays the exact-capacity stall above
/// (node 0 sends, node 1's queue fills) and pins every stall on node 1.
#[test]
fn deliver_stalls_are_attributed_to_the_destination_node() {
    let rig = build_rig();
    let topo = MeshTopology {
        width: 2,
        height: 1,
    };
    let cfg = NetConfig {
        hop_latency: 1,
        link_bandwidth: 4,
        link_capacity: MSG_WORDS as u32,
        inject_capacity: MSG_WORDS as u32,
        recv_capacity: MSG_WORDS as u32,
    };
    let mut fabric = Fabric::new(topo, cfg);
    let mut placement = Placement::new(PlacementPolicy::RoundRobin, 2);
    let info = net_info();
    let mut nh = NoNetHooks;

    let mut sender = Machine::new(MachineConfig::default(), &rig.img);
    sender.start_low(rig.sender_entry);
    let mut receiver = Machine::new(
        MachineConfig {
            queue_words: [RECV_QUEUE_WORDS, RECV_QUEUE_WORDS],
            ..MachineConfig::default()
        },
        &rig.img,
    );

    // Drive to steady state: receiver never runs, its queue fills to
    // exact capacity, the NI holds deliveries under back-pressure.
    let mut sender_done = false;
    for _ in 0..100u64 {
        if !sender_done {
            let mut port = NodePort {
                node: 0,
                info,
                fabric: &mut fabric,
                placement: &mut placement,
                hooks: &mut nh,
                serve: None,
                steal: None,
            };
            if matches!(
                sender.step(&mut NoHooks, &mut port).expect("sender failed"),
                Step::Halted(_)
            ) {
                sender_done = true;
            }
        }
        fabric.tick();
        if let Some(msg) = fabric.ready_recv(1) {
            let pri = msg.pri;
            let words = msg.words.clone();
            if receiver.try_deliver(pri, &words, &mut NoHooks) {
                fabric.pop_recv(1);
            } else {
                fabric.note_deliver_stall(1);
            }
        }
    }
    assert_eq!(receiver.queue(Priority::Low).used_words(), RECV_QUEUE_WORDS);

    let total = fabric.stats().deliver_stalls;
    assert!(total > 0, "NI never held a delivery");
    let by_node = fabric.deliver_stalls_by_node();
    assert_eq!(by_node.len(), 2);
    assert_eq!(
        by_node[0], 0,
        "sender node charged with the receiver's stalls"
    );
    assert_eq!(by_node[1], total, "per-node stall column must be truthful");
}
