// Replication subsystem tests: channel fault semantics, wire protocol,
// replica-store acceptance rules, and the end-to-end guarantee — under a
// transport that drops, duplicates, delays and reorders, every committed
// epoch eventually reaches every partner bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "comm/coordinated.h"
#include "comm/sim_comm.h"
#include "core/container.h"
#include "repl/protocol.h"
#include "repl/recover.h"
#include "repl/replica_store.h"
#include "repl/replicator.h"
#include "snapshot/archive.h"
#include "snapshot/format.h"
#include "snapshot/writer.h"
#include "util/durable_file.h"

namespace crpm {
namespace {

using repl::AppendVerdict;
using repl::ReplicaStore;
using durable_file::Op;

std::string temp_dir(const std::string& name) {
  auto p = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

// --- channel --------------------------------------------------------------

TEST(Channel, DeliversInOrderWithoutFaults) {
  Channel ch(2);
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(ch.send(0, 1, i, &i, sizeof(i)));
  }
  for (uint64_t i = 0; i < 16; ++i) {
    Message m;
    ASSERT_TRUE(ch.recv(1, &m, 1000));
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.tag, i);
    uint64_t v = 0;
    ASSERT_EQ(m.payload.size(), sizeof(v));
    std::memcpy(&v, m.payload.data(), sizeof(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(ch.stats().sent, 16u);
  EXPECT_EQ(ch.stats().delivered, 16u);
}

TEST(Channel, DropEatsEveryMessage) {
  FaultSpec f;
  f.drop_prob = 1.0;
  Channel ch(2, f);
  uint64_t v = 7;
  EXPECT_TRUE(ch.send(0, 1, 0, &v, sizeof(v)));  // loss is silent
  Message m;
  EXPECT_FALSE(ch.recv(1, &m, 2000));
  EXPECT_EQ(ch.stats().dropped, 1u);
  EXPECT_EQ(ch.stats().delivered, 0u);
}

TEST(Channel, DuplicateDeliversTwice) {
  FaultSpec f;
  f.dup_prob = 1.0;
  Channel ch(2, f);
  uint64_t v = 7;
  EXPECT_TRUE(ch.send(0, 1, 42, &v, sizeof(v)));
  Message a, b, c;
  EXPECT_TRUE(ch.recv(1, &a, 1000));
  EXPECT_TRUE(ch.recv(1, &b, 1000));
  EXPECT_FALSE(ch.try_recv(1, &c));
  EXPECT_EQ(a.tag, 42u);
  EXPECT_EQ(b.tag, 42u);
  EXPECT_EQ(ch.stats().duplicated, 1u);
}

TEST(Channel, LossySpecInjectsEveryFaultKind) {
  Channel ch(2, FaultSpec::lossy(3));
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(ch.send(0, 1, i, &i, sizeof(i)));
  }
  size_t got = 0;
  Message m;
  while (ch.recv(1, &m, 2000)) ++got;
  const ChannelStats s = ch.stats();
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.reordered, 0u);
  EXPECT_GT(s.delayed, 0u);
  EXPECT_EQ(got, 400 - s.dropped + s.duplicated);
}

TEST(Channel, CloseWakesBlockedReceiver) {
  Channel ch(2);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
  });
  Message m;
  EXPECT_FALSE(ch.recv(1, &m, 60 * 1000 * 1000));
  closer.join();
  uint64_t v = 0;
  EXPECT_FALSE(ch.send(0, 1, 0, &v, sizeof(v)));
}

// --- protocol -------------------------------------------------------------

TEST(ReplProtocol, EncodeDecodeRoundTrip) {
  repl::ReplMsgHeader h;
  h.type = repl::kFrame;
  h.origin = 3;
  h.epoch = 17;
  h.block_size = 256;
  std::vector<uint8_t> body(100, 0xAB);
  auto wire = repl::encode(h, body.data(), body.size());

  repl::ReplMsgHeader out;
  const uint8_t* b = nullptr;
  size_t blen = 0;
  ASSERT_TRUE(repl::decode(wire, &out, &b, &blen));
  EXPECT_EQ(out.type, repl::kFrame);
  EXPECT_EQ(out.origin, 3u);
  EXPECT_EQ(out.epoch, 17u);
  ASSERT_EQ(blen, body.size());
  EXPECT_EQ(std::memcmp(b, body.data(), blen), 0);
}

TEST(ReplProtocol, DecodeRejectsCorruption) {
  repl::ReplMsgHeader h;
  h.type = repl::kAck;
  std::vector<uint8_t> body(32, 1);
  auto wire = repl::encode(h, body.data(), body.size());

  repl::ReplMsgHeader out;
  const uint8_t* b = nullptr;
  size_t blen = 0;
  auto flipped = wire;
  flipped[4] ^= 0x40;  // header byte
  EXPECT_FALSE(repl::decode(flipped, &out, &b, &blen));
  flipped = wire;
  flipped[sizeof(h) + 5] ^= 0x40;  // body byte
  EXPECT_FALSE(repl::decode(flipped, &out, &b, &blen));
  flipped = wire;
  flipped.resize(sizeof(h) - 8);  // truncated header
  EXPECT_FALSE(repl::decode(flipped, &out, &b, &blen));
  EXPECT_TRUE(repl::decode(wire, &out, &b, &blen));
}

TEST(ReplProtocol, PartnerAndClientMaps) {
  EXPECT_EQ(repl::partners_of(0, 4, 2), (std::vector<int>{1, 2}));
  EXPECT_EQ(repl::partners_of(3, 4, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(repl::partners_of(0, 1, 2), (std::vector<int>{}));
  EXPECT_EQ(repl::partners_of(0, 2, 3), (std::vector<int>{1}));
  EXPECT_EQ(repl::clients_of(1, 4, 2), (std::vector<int>{0, 3}));
  EXPECT_EQ(repl::clients_of(0, 4, 1), (std::vector<int>{3}));
  // partner/client maps are inverses.
  for (int r = 0; r < 5; ++r) {
    for (int p : repl::partners_of(r, 5, 2)) {
      auto c = repl::clients_of(p, 5, 2);
      EXPECT_NE(std::find(c.begin(), c.end(), r), c.end());
    }
  }
}

// --- replica store --------------------------------------------------------

constexpr uint64_t kBlk = 256;

std::vector<uint8_t> make_frame(uint32_t kind, uint64_t epoch,
                                std::vector<uint64_t> blocks, uint8_t fill) {
  std::array<uint64_t, kNumRoots> roots{};
  roots[0] = epoch;  // distinguishable committed roots per epoch
  std::vector<uint8_t> payload(blocks.size() * kBlk, fill);
  std::vector<uint8_t> buf;
  snapshot::serialize_frame(kind, epoch, roots, blocks, payload.data(), kBlk,
                            &buf);
  return buf;
}

TEST(ReplicaStoreTest, AcceptanceRules) {
  const std::string dir = temp_dir("crpm_replstore_rules");
  auto store_ptr = std::make_unique<ReplicaStore>(dir);
  ReplicaStore& store = *store_ptr;

  auto f1 = make_frame(snapshot::kDeltaFrame, 1, {0, 1}, 0x11);
  auto f2 = make_frame(snapshot::kDeltaFrame, 2, {1}, 0x22);
  auto f4 = make_frame(snapshot::kDeltaFrame, 4, {2}, 0x44);
  auto b7 = make_frame(snapshot::kBaseFrame, 7, {0, 1, 2}, 0x77);

  EXPECT_EQ(store.append(0, 1, kBlk, 1 << 20, 4096, f1.data(), f1.size(),
                         true),
            AppendVerdict::kStored);
  // Duplicate: stale, re-ackable.
  EXPECT_EQ(store.append(0, 1, kBlk, 1 << 20, 4096, f1.data(), f1.size(),
                         true),
            AppendVerdict::kStale);
  // Delta skipping epoch 3: gap-rejected, chain stays restorable.
  EXPECT_EQ(store.append(0, 4, kBlk, 1 << 20, 4096, f4.data(), f4.size(),
                         true),
            AppendVerdict::kGap);
  EXPECT_EQ(store.append(0, 2, kBlk, 1 << 20, 4096, f2.data(), f2.size(),
                         true),
            AppendVerdict::kStored);
  EXPECT_EQ(store.newest_epoch(0), 2u);
  // A base frame may jump forward: it restarts the chain.
  EXPECT_EQ(store.append(0, 7, kBlk, 1 << 20, 4096, b7.data(), b7.size(),
                         true),
            AppendVerdict::kStored);
  EXPECT_EQ(store.newest_epoch(0), 7u);
  // Corrupt bytes: invalid, never stored.
  auto bad = f2;
  bad[sizeof(snapshot::FrameHeader) + 3] ^= 0x1;
  EXPECT_EQ(store.append(1, 2, kBlk, 1 << 20, 4096, bad.data(), bad.size(),
                         true),
            AppendVerdict::kInvalid);
  EXPECT_EQ(store.newest_epoch(1), 0u);
  // Frame whose epoch disagrees with the header's claim: invalid.
  EXPECT_EQ(store.append(1, 9, kBlk, 1 << 20, 4096, f1.data(), f1.size(),
                         true),
            AppendVerdict::kInvalid);

  // The peer file is a normal snapshot archive.
  snapshot::ArchiveReader reader(store.peer_path(0));
  ASSERT_TRUE(reader.ok());
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 7u);

  // The store acks exactly what its reader restores: a CRC-valid delta
  // whose record lies outside the region, or that carries more records
  // than the region has blocks, is refused like corrupt bytes.
  const uint64_t nr_blocks = (1 << 20) / kBlk;
  auto outside = make_frame(snapshot::kDeltaFrame, 8, {nr_blocks}, 0x88);
  EXPECT_EQ(store.append(0, 8, kBlk, 1 << 20, 4096, outside.data(),
                         outside.size(), true),
            AppendVerdict::kInvalid);
  std::vector<uint64_t> overfull_blocks(nr_blocks + 1);
  for (uint64_t i = 0; i <= nr_blocks; ++i) {
    overfull_blocks[i] = i % nr_blocks;
  }
  auto overfull = make_frame(snapshot::kDeltaFrame, 1, overfull_blocks, 0x88);
  EXPECT_EQ(store.append(4, 1, kBlk, 1 << 20, 4096, overfull.data(),
                         overfull.size(), true),
            AppendVerdict::kInvalid);
  EXPECT_EQ(store.newest_epoch(4), 0u);
  // A geometry no archive header can hold is refused before any check
  // divides by its block size.
  EXPECT_EQ(store.append(3, 1, 0, 1 << 20, 4096, f1.data(), f1.size(), true),
            AppendVerdict::kInvalid);
  // A block count that wraps the frame size (1-byte blocks of a 2^64-byte
  // region: 192 + 13 * count == 206 mod 2^64) over three CRC-valid
  // records is refused without reading past the message's 206 bytes.
  snapshot::FrameHeader wrap;
  wrap.epoch = 1;
  wrap.block_count = 0x4ec4ec4ec4ec4ec6ull;
  wrap.header_crc = crc32(&wrap, offsetof(snapshot::FrameHeader, header_crc));
  std::vector<uint8_t> wrapped(206, 0);
  std::memcpy(wrapped.data(), &wrap, sizeof(wrap));
  for (size_t at = sizeof(wrap); at + 13 <= wrapped.size(); at += 13) {
    const uint32_t crc = crc32(wrapped.data() + at, 9);
    std::memcpy(wrapped.data() + at + 9, &crc, 4);
  }
  EXPECT_EQ(store.append(5, 1, 1, UINT64_MAX, 4096, wrapped.data(),
                         wrapped.size(), true),
            AppendVerdict::kInvalid);
  auto f8 = make_frame(snapshot::kDeltaFrame, 8, {3}, 0x88);
  EXPECT_EQ(store.append(0, 8, kBlk, 1 << 20, 4096, f8.data(), f8.size(),
                         true),
            AppendVerdict::kStored);

  // Every acked epoch survives a reopen and restores from the peer file.
  store_ptr.reset();
  ReplicaStore reopened(dir);
  EXPECT_EQ(reopened.newest_epoch(0), 8u);
  snapshot::ArchiveReader after(reopened.peer_path(0));
  for (uint64_t e : {1, 2, 7, 8}) {
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    std::string err;
    EXPECT_TRUE(after.state_at(e, &image, &roots, &err))
        << "epoch " << e << ": " << err;
    EXPECT_EQ(roots[0], e);
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplicaStoreTest, AdoptsFilesAcrossRestart) {
  const std::string dir = temp_dir("crpm_replstore_restart");
  auto f1 = make_frame(snapshot::kDeltaFrame, 1, {0}, 0x11);
  auto f2 = make_frame(snapshot::kDeltaFrame, 2, {1}, 0x22);
  {
    ReplicaStore store(dir);
    ASSERT_EQ(store.append(2, 1, kBlk, 1 << 20, 4096, f1.data(), f1.size(),
                           true),
              AppendVerdict::kStored);
    ASSERT_EQ(store.append(2, 2, kBlk, 1 << 20, 4096, f2.data(), f2.size(),
                           true),
              AppendVerdict::kStored);
  }
  {
    // Torn tail: a replica crash mid-append leaves half a frame.
    auto f3 = make_frame(snapshot::kDeltaFrame, 3, {0}, 0x33);
    std::FILE* f = std::fopen(ReplicaStore::peer_path(dir, 2).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(f3.data(), 1, f3.size() / 2, f);
    std::fclose(f);
  }
  ReplicaStore store(dir);
  EXPECT_EQ(store.peers(), (std::vector<int>{2}));
  EXPECT_EQ(store.newest_epoch(2), 2u);  // torn epoch 3 dropped
  auto f3 = make_frame(snapshot::kDeltaFrame, 3, {0}, 0x33);
  EXPECT_EQ(store.append(2, 3, kBlk, 1 << 20, 4096, f3.data(), f3.size(),
                         true),
            AppendVerdict::kStored);
  EXPECT_EQ(store.newest_epoch(2), 3u);
  std::filesystem::remove_all(dir);
}

// Makes the `nth` `op` after arming (counting from 0) fail with EIO;
// disarms on destruction.
class FailNth {
 public:
  explicit FailNth(Op op, uint64_t nth = 0) {
    durable_file::set_fault_hook([this, op, nth](Op o) {
      return o == op && seen_++ == nth && !fired_.exchange(true) ? EIO : 0;
    });
  }
  ~FailNth() { durable_file::set_fault_hook({}); }
  bool fired() const { return fired_.load(); }

 private:
  std::atomic<uint64_t> seen_{0};
  std::atomic<bool> fired_{false};
};

// A file's size and CRC32.
std::pair<uint64_t, uint32_t> file_sig(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<uint8_t> bytes;
  for (int ch; f != nullptr && (ch = std::fgetc(f)) != EOF;) {
    bytes.push_back(static_cast<uint8_t>(ch));
  }
  if (f != nullptr) std::fclose(f);
  return {bytes.size(), crc32(bytes.data(), bytes.size())};
}

// A read that fails while a store reopens its peer files is not a torn
// tail: the frames behind it were acked. The store refuses that peer
// without truncating or re-creating its file, and once reads work again
// every epoch restores.
TEST(ReplicaStoreTest, ReadErrorOnReopenRefusesThePeerAndKeepsTheFile) {
  const std::string dir = temp_dir("crpm_replstore_readerr");
  {
    ReplicaStore store(dir);
    for (uint64_t e = 1; e <= 3; ++e) {
      auto f = make_frame(snapshot::kDeltaFrame, e, {e}, uint8_t(0x10 * e));
      ASSERT_EQ(store.append(0, e, kBlk, 1 << 20, 4096, f.data(), f.size(),
                             true),
                AppendVerdict::kStored);
    }
  }
  const std::string path = ReplicaStore::peer_path(dir, 0);
  const auto before = file_sig(path);
  uint64_t k = 0;
  for (;; ++k) {
    SCOPED_TRACE("failing read " + std::to_string(k));
    FailNth fault(Op::kRead, k);
    ReplicaStore store(dir);
    if (!fault.fired()) {
      EXPECT_EQ(store.newest_epoch(0), 3u);
      break;
    }
    EXPECT_TRUE(store.peers().empty());
    EXPECT_EQ(store.newest_epoch(0), 0u);
    EXPECT_EQ(file_sig(path), before);
  }
  EXPECT_GE(k, 7u) << "the header, three heads and three bodies are read";

  ReplicaStore reopened(dir);
  EXPECT_EQ(reopened.newest_epoch(0), 3u);
  snapshot::ArchiveReader reader(path);
  for (uint64_t e = 1; e <= 3; ++e) {
    std::vector<uint8_t> image;
    std::array<uint64_t, kNumRoots> roots{};
    std::string err;
    ASSERT_TRUE(reader.state_at(e, &image, &roots, &err)) << err;
    EXPECT_EQ(image[e * kBlk], uint8_t(0x10 * e)) << "epoch " << e;
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplicaStoreTest, FailedWriteOrSyncIsNeverStored) {
  const std::string dir = temp_dir("crpm_replstore_ioerr");
  ReplicaStore store(dir);
  auto f1 = make_frame(snapshot::kDeltaFrame, 1, {0, 1}, 0x11);
  auto f2 = make_frame(snapshot::kDeltaFrame, 2, {1}, 0x22);
  ASSERT_EQ(store.append(0, 1, kBlk, 1 << 20, 4096, f1.data(), f1.size(),
                         true),
            AppendVerdict::kStored);
  const auto size_before = std::filesystem::file_size(store.peer_path(0));

  for (Op failing : {Op::kWrite, Op::kSync}) {
    {
      FailNth fault(failing);
      EXPECT_EQ(store.append(0, 2, kBlk, 1 << 20, 4096, f2.data(),
                             f2.size(), true),
                AppendVerdict::kError);
      EXPECT_TRUE(fault.fired());
    }
    // Not acked, not counted, and the bytes whose sync failed are gone.
    EXPECT_EQ(store.newest_epoch(0), 1u);
    EXPECT_EQ(store.frames_stored(), 1u);
    EXPECT_EQ(std::filesystem::file_size(store.peer_path(0)), size_before);
  }

  // The sender's retry of the same epoch is stored and restorable, also
  // after the replica restarts.
  EXPECT_EQ(store.append(0, 2, kBlk, 1 << 20, 4096, f2.data(), f2.size(),
                         true),
            AppendVerdict::kStored);
  EXPECT_EQ(store.newest_epoch(0), 2u);
  ReplicaStore reopened(dir);
  EXPECT_EQ(reopened.newest_epoch(0), 2u);
  snapshot::ArchiveReader reader(store.peer_path(0));
  ASSERT_TRUE(reader.ok());
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 2u);
  std::filesystem::remove_all(dir);
}

// --- end to end -----------------------------------------------------------

CrpmOptions small_opts() {
  CrpmOptions o;
  o.segment_size = 4096;
  o.block_size = 256;
  o.main_region_size = 256 * 1024;
  o.eager_cow_segments = 0;
  return o;
}

// Every committed epoch reaches every partner over a lossy, duplicating,
// reordering transport, and the replicated state is bit-identical to the
// origin's archive.
TEST(ReplEnd2End, AllEpochsReachAllPartnersUnderFaults) {
  constexpr int kRanks = 3;
  constexpr int kReplicas = 2;
  constexpr uint64_t kEpochs = 6;
  const std::string dir = temp_dir("crpm_repl_e2e");

  SimComm comm(kRanks);
  Channel channel(kRanks, FaultSpec::lossy(11));
  std::array<uint64_t, kRanks> retries{};
  std::array<uint64_t, kRanks> stalls{};

  comm.run([&](int rank) {
    const std::string tag = dir + "/r" + std::to_string(rank);
    CrpmOptions o = small_opts();
    auto c = Container::open_file(tag + ".ctr", o);

    repl::ReplConfig cfg;
    cfg.replicas = kReplicas;
    cfg.store_dir = tag + ".store";
    cfg.ack_timeout_us = 1000;
    cfg.queue_depth = 2;  // small: exercise backpressure accounting
    cfg.fsync_store = false;
    repl::ReplNode node(channel, rank, cfg);

    snapshot::ArchiveWriter writer(tag + ".snap");
    writer.attach(*c);
    node.attach(*c, writer);

    auto* data = c->data();
    for (uint64_t e = 0; e < kEpochs; ++e) {
      for (uint64_t i = 0; i < 64; ++i) {
        const uint64_t off = (i * 977 + e * 131) % c->capacity();
        c->annotate(data + off, 1);
        data[off] = uint8_t(rank * 100 + e + i);
      }
      coordinated_checkpoint(comm, *c);
    }
    writer.drain();
    node.flush();
    comm.barrier();  // nobody tears down while a peer still awaits acks

    const auto st = node.stats();
    retries[size_t(rank)] = st.retries;
    stalls[size_t(rank)] = st.queue_stall_ns;
    for (int p : node.partners()) {
      EXPECT_EQ(node.newest_acked(p), kEpochs)
          << "rank " << rank << " partner " << p;
    }
    EXPECT_EQ(st.frames_given_up, 0u);
    comm.barrier();  // stats read before any node is destroyed
  });

  // The fault injector actually bit: with 20% drop over hundreds of
  // datagrams, retransmissions are certain.
  uint64_t total_retries = 0;
  for (auto r : retries) total_retries += r;
  EXPECT_GT(total_retries, 0u);

  // Every partner's replica of every rank is bit-identical to the rank's
  // own archive at the final epoch.
  for (int r = 0; r < kRanks; ++r) {
    const std::string own = dir + "/r" + std::to_string(r) + ".snap";
    std::vector<uint8_t> want;
    std::array<uint64_t, kNumRoots> want_roots{};
    std::string err;
    snapshot::ArchiveReader own_reader(own);
    ASSERT_TRUE(own_reader.ok());
    ASSERT_TRUE(own_reader.state_at(kEpochs, &want, &want_roots, &err))
        << err;
    for (int p : repl::partners_of(r, kRanks, kReplicas)) {
      const std::string replica = repl::ReplicaStore::peer_path(
          dir + "/r" + std::to_string(p) + ".store", r);
      snapshot::ArchiveReader reader(replica);
      ASSERT_TRUE(reader.ok()) << replica;
      std::vector<uint8_t> got;
      std::array<uint64_t, kNumRoots> got_roots{};
      ASSERT_TRUE(reader.state_at(kEpochs, &got, &got_roots, &err)) << err;
      EXPECT_EQ(want, got) << "rank " << r << " replica at " << p;
      EXPECT_EQ(want_roots, got_roots);
    }
  }
  std::filesystem::remove_all(dir);
}

// A full queue blocks the enqueuing thread (bounded memory), and the stall
// is accounted — never dropped frames.
TEST(ReplNodeTest, BoundedQueueBackpressure) {
  const std::string dir = temp_dir("crpm_repl_bp");
  // Partner rank 1 exists but never runs a node: no acks, so rank 0's
  // queue fills and stays full.
  Channel channel(2);
  repl::ReplConfig cfg;
  cfg.replicas = 1;
  cfg.store_dir = dir + "/store0";
  cfg.ack_timeout_us = 500;
  cfg.queue_depth = 2;
  cfg.max_attempts = 3;  // give up quickly so the test drains
  auto node = std::make_unique<repl::ReplNode>(channel, 0, cfg);

  auto frame = make_frame(snapshot::kDeltaFrame, 1, {0}, 0x5A);
  for (uint64_t e = 1; e <= 6; ++e) {
    auto f = make_frame(snapshot::kDeltaFrame, e, {0}, uint8_t(e));
    node->on_frame(e, snapshot::kDeltaFrame, f.data(), f.size());
  }
  node->flush();
  const auto st = node->stats();
  EXPECT_EQ(st.frames_given_up, 6u);  // one partner, every frame abandoned
  EXPECT_GT(st.queue_stall_ns, 0u);
  EXPECT_LE(st.queue_hwm, 2u);
  EXPECT_GT(st.retries, 0u);
  node.reset();
  (void)frame;
  std::filesystem::remove_all(dir);
}

// A pull whose file write, sync or rename fails reports failure and leaves
// no file behind — neither the archive nor its tmp — and the same pull
// succeeds once the fault is gone.
TEST(ReplNodeTest, FailedPullLeavesNoFile) {
  const std::string dir = temp_dir("crpm_repl_pullerr");
  Channel channel(2);
  repl::ReplConfig cfg;
  cfg.replicas = 1;
  cfg.ack_timeout_us = 2000;
  cfg.store_dir = dir + "/store0";
  repl::ReplNode puller(channel, 0, cfg);
  cfg.store_dir = dir + "/store1";
  repl::ReplNode holder(channel, 1, cfg);
  // The holder keeps origin 0's chain (epochs 1 and 2).
  for (uint64_t e = 1; e <= 2; ++e) {
    auto f = make_frame(snapshot::kDeltaFrame, e, {e}, uint8_t(e));
    ASSERT_EQ(holder.store().append(0, e, kBlk, 1 << 20, 4096, f.data(),
                                    f.size(), true),
              AppendVerdict::kStored);
  }

  const std::string dest = dir + "/pulled.crpmsnap";
  std::string err;
  for (Op failing : {Op::kWrite, Op::kSync, Op::kRename}) {
    {
      FailNth fault(failing);
      EXPECT_FALSE(puller.pull(1, 0, 2, dest, &err));
      EXPECT_TRUE(fault.fired());
    }
    EXPECT_FALSE(std::filesystem::exists(dest));
    EXPECT_FALSE(std::filesystem::exists(dest + ".tmp"));
  }
  ASSERT_TRUE(puller.pull(1, 0, 2, dest, &err)) << err;
  snapshot::ArchiveReader reader(dest);
  ASSERT_TRUE(reader.ok());
  uint64_t latest = 0;
  ASSERT_TRUE(reader.latest_restorable(&latest));
  EXPECT_EQ(latest, 2u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace crpm
