#include "proto/rdma.h"

#include "net/packet.h"

namespace lnic::proto {

using net::Packet;
using net::PacketKind;

namespace {

/// Service delay for a one-sided read: DRAM access + DMA engine setup.
constexpr SimDuration kReadService = nanoseconds(900);
/// Service delay for absorbing a one-sided write.
constexpr SimDuration kWriteService = nanoseconds(600);

std::uint32_t read_u32(const net::BufferView& body, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4 && at + i < body.size(); ++i) {
    v |= static_cast<std::uint32_t>(body[at + i]) << (8 * i);
  }
  return v;
}

}  // namespace

// ------------------------------------------------------- HostMemoryNode

HostMemoryNode::HostMemoryNode(sim::Simulator& sim, net::Network& network)
    : sim_(sim), network_(network) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); });
}

void HostMemoryNode::handle_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kRdmaWrite) return;
  if (auto message = reassembly_.add(packet)) {
    serve(message->header, std::move(message->body));
  }
}

net::BufferView HostMemoryNode::synthetic(Bytes len) {
  if (!zeros_ || zeros_->size() < len) {
    zeros_ = Buffer::adopt(std::vector<std::uint8_t>(
        std::max<std::size_t>(len, 4096), 0));
  }
  return net::BufferView(zeros_, 0, len);
}

void HostMemoryNode::serve(const Packet& request, net::BufferView body) {
  const bool is_read = request.lambda.workload_id == kRdmaOpRead;
  SimDuration service;
  net::LambdaHeader header;
  header.workload_id = request.lambda.workload_id;
  header.request_id = request.lambda.request_id;
  net::BufferView reply_body;
  if (is_read) {
    const Bytes len = read_u32(body, 8);
    ++stats_.reads;
    stats_.bytes_read += len;
    service = kReadService;
    reply_body = synthetic(std::max<Bytes>(len, 1));
  } else {
    ++stats_.writes;
    stats_.bytes_written += body.size();
    service = kWriteService;
    reply_body = synthetic(8);
  }
  const NodeId dst = request.src;
  sim_.schedule(service, [this, dst, header, reply_body]() {
    net::fragment(node_, dst, PacketKind::kRdmaEvent, header, reply_body,
                  [this](Packet p) { network_.send(std::move(p)); });
  });
}

// --------------------------------------------------------------- RdmaQp

RdmaQp::RdmaQp(sim::Simulator& sim, net::Network& network)
    : sim_(sim), network_(network) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); });
}

net::BufferView RdmaQp::synthetic(Bytes len) {
  if (!zeros_ || zeros_->size() < len) {
    zeros_ = Buffer::adopt(std::vector<std::uint8_t>(
        std::max<std::size_t>(len, 4096), 0));
  }
  return net::BufferView(zeros_, 0, len);
}

void RdmaQp::read(NodeId host, std::uint64_t addr, Bytes len,
                  std::function<void()> done) {
  const RequestId id = next_id_++;
  ++stats_.reads;
  stats_.bytes_fetched += len;
  pending_[id] = std::move(done);

  std::vector<std::uint8_t> body(12);
  for (int i = 0; i < 8; ++i) {
    body[i] = static_cast<std::uint8_t>(addr >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    body[8 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  Packet request;
  request.src = node_;
  request.dst = host;
  request.kind = PacketKind::kRdmaWrite;
  request.lambda.workload_id = kRdmaOpRead;
  request.lambda.request_id = id;
  request.payload = std::move(body);
  network_.send(std::move(request));
}

void RdmaQp::write(NodeId host, std::uint64_t addr, Bytes len,
                   std::function<void()> done) {
  (void)addr;  // the host target is a timing server; data is synthetic
  const RequestId id = next_id_++;
  ++stats_.writes;
  stats_.bytes_pushed += len;
  pending_[id] = std::move(done);

  net::LambdaHeader header;
  header.workload_id = kRdmaOpWrite;
  header.request_id = id;
  net::fragment(node_, host, PacketKind::kRdmaWrite, header,
                synthetic(std::max<Bytes>(len, 1)),
                [this](Packet p) { network_.send(std::move(p)); });
}

void RdmaQp::handle_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kRdmaEvent) return;
  auto it = pending_.find(packet.lambda.request_id);
  if (it == pending_.end()) return;
  if (!completions_.add(packet)) return;
  auto done = std::move(it->second);
  pending_.erase(it);
  if (done) done();
}

}  // namespace lnic::proto
