#include "loadbench/hosting.h"

namespace xks::loadbench {

Status Ingest(const std::vector<XmlDoc>& docs, Database* db) {
  for (const XmlDoc& doc : docs) {
    Result<DocumentId> id = db->AddDocumentXml(doc.spec.name, doc.xml);
    if (!id.ok()) return id.status();
  }
  return db->Build();
}

Result<std::unique_ptr<SingleNode>> StartSingleNode(
    const std::vector<XmlDoc>& docs) {
  auto node = std::make_unique<SingleNode>();
  XKS_RETURN_IF_ERROR(Ingest(docs, &node->db));
  node->server = std::make_unique<XksServer>(&node->db, ServerConfig{});
  XKS_RETURN_IF_ERROR(node->server->Start());
  return node;
}

size_t Fleet::ShardOf(DocumentId id) const {
  size_t shard = 0;
  size_t end = split[0];
  while (id >= end && shard + 1 < split.size()) end += split[++shard];
  return shard;
}

Result<std::unique_ptr<Fleet>> StartFleet(const std::vector<XmlDoc>& docs,
                                          size_t shards) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<ShardInfo> roster;
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t count = (docs.size() - next) / (shards - s);
    std::vector<XmlDoc> part(docs.begin() + static_cast<long>(next),
                             docs.begin() + static_cast<long>(next + count));
    fleet->shard_dbs.push_back(std::make_unique<Database>());
    XKS_RETURN_IF_ERROR(Ingest(part, fleet->shard_dbs.back().get()));
    fleet->shard_servers.push_back(std::make_unique<XksServer>(
        fleet->shard_dbs.back().get(), ServerConfig{}));
    XKS_RETURN_IF_ERROR(fleet->shard_servers.back()->Start());
    ShardInfo info;
    info.host = "127.0.0.1";
    info.port = fleet->shard_servers.back()->port();
    info.first_id = static_cast<DocumentId>(next);
    info.last_id = static_cast<DocumentId>(next + count - 1);
    roster.push_back(std::move(info));
    fleet->split.push_back(count);
    next += count;
  }
  Result<ShardMap> map = ShardMap::Of(std::move(roster));
  if (!map.ok()) return map.status();
  fleet->coordinator = std::make_unique<Coordinator>(std::move(map).value(),
                                                     CoordinatorConfig{});
  XKS_RETURN_IF_ERROR(fleet->coordinator->RefreshRoster(CancelToken()));
  fleet->backend = std::make_unique<CoordBackend>(fleet->coordinator.get(),
                                                  CoordBackendConfig{});
  fleet->server =
      std::make_unique<XksServer>(fleet->backend.get(), ServerConfig{});
  XKS_RETURN_IF_ERROR(fleet->server->Start());
  return fleet;
}

size_t StoredBytes(const Database& db) {
  std::string encoded;
  db.EncodeTo(&encoded);
  return encoded.size();
}

}  // namespace xks::loadbench
