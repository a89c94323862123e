// In-process hosting of the system under test, the way a deployment runs
// it: a Database behind an XksServer for one node, and shard XksServers
// behind a Coordinator served by XksServer(CoordBackend) for a fleet. Both
// listen on loopback; the load generators reach them only through sockets.

#ifndef XKS_LOADBENCH_HOSTING_H_
#define XKS_LOADBENCH_HOSTING_H_

#include <memory>
#include <vector>

#include "loadbench/inputs.h"
#include "src/api/database.h"
#include "src/coord/coord_service.h"
#include "src/coord/coordinator.h"
#include "src/server/server.h"

namespace xks::loadbench {

/// Ingests `docs` (in order, so ids follow it) and publishes epoch 1.
Status Ingest(const std::vector<XmlDoc>& docs, Database* db);

struct SingleNode {
  Database db;
  std::unique_ptr<XksServer> server;

  uint16_t port() const { return server->port(); }
};

/// XML ingest, Build and server start.
Result<std::unique_ptr<SingleNode>> StartSingleNode(const std::vector<XmlDoc>& docs);

struct Fleet {
  /// Documents per shard (contiguous global id ranges).
  std::vector<size_t> split;
  /// Members are destroyed in reverse order: front server, backend,
  /// coordinator, shard servers, then the shard corpora they serve.
  std::vector<std::unique_ptr<Database>> shard_dbs;
  std::vector<std::unique_ptr<XksServer>> shard_servers;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<CoordBackend> backend;
  std::unique_ptr<XksServer> server;

  uint16_t port() const { return server->port(); }
  /// The shard index holding global document `id`.
  size_t ShardOf(DocumentId id) const;
};

/// Splits `docs` into `shards` contiguous id ranges, starts one xksd per
/// range, a coordinator over them (roster warmed) and its front server.
Result<std::unique_ptr<Fleet>> StartFleet(const std::vector<XmlDoc>& docs,
                                          size_t shards);

/// Database::EncodeTo size of `db`.
size_t StoredBytes(const Database& db);

}  // namespace xks::loadbench

#endif  // XKS_LOADBENCH_HOSTING_H_
