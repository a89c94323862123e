#include "loadbench/load.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/server/client.h"

namespace xks::loadbench {
namespace {

std::string StatusName(const Status& status) {
  return std::string(StatusCodeName(status.code()));
}

/// Per-connection in-flight ceiling of the open loop, below the service's
/// per-client quota of 32 (a burst above it is shed with ResourceExhausted).
constexpr size_t kMaxInflight = 24;

Result<XksClient> ConnectLoopback(uint16_t port) {
  return XksClient::Connect("127.0.0.1", port, /*connect_timeout_ms=*/5000);
}

/// Per-connection receive-order epoch watch: epochs must never go back.
struct EpochWatch {
  uint64_t last = 0;
  uint64_t regressions = 0;
  void See(uint64_t epoch) {
    if (epoch < last) ++regressions;
    last = std::max(last, epoch);
  }
};

}  // namespace

PageSummary Summarize(const SearchResponse& response) {
  PageSummary page;
  page.ok = true;
  page.total_hits = response.total_hits;
  page.total_is_exact = response.total_is_exact;
  page.has_cursor = !response.next_cursor.empty();
  page.hits.reserve(response.hits.size());
  for (const Hit& hit : response.hits) {
    HitSummary summary;
    summary.document = hit.document;
    summary.score = hit.score;
    // Snippet lines read "label (dewey) ..."; the first line is the root.
    const size_t open = hit.snippet.find('(');
    const size_t close = hit.snippet.find(')', open);
    if (open != std::string::npos && close != std::string::npos) {
      summary.root = hit.snippet.substr(open + 1, close - open - 1);
    }
    page.hits.push_back(std::move(summary));
  }
  return page;
}

void PhaseResult::Fail(const std::string& what) {
  ++check_failures;
  if (failure_examples.size() < 5) failure_examples.push_back(what);
}

std::string PhaseResult::Describe() const {
  std::ostringstream out;
  out << "phase " << name << ": elapsed_s=" << elapsed_s
      << " ok=" << completed_ok << " attempted=" << ops.attempted()
      << " failed=" << ops.failed() << " samples=" << latency_ms.size();
  if (!latency_ms.empty()) {
    out << " p50_ms=" << Percentile(latency_ms, 50);
    const double tail = SupportedTailPercentile(latency_ms.size());
    if (tail > 0) out << " p" << tail << "_ms=" << Percentile(latency_ms, tail);
  }
  if (!next_page_ms.empty()) {
    out << " next_page_samples=" << next_page_ms.size()
        << " next_page_p50_ms=" << Percentile(next_page_ms, 50);
  }
  if (!lateness_ms.empty()) {
    out << " lateness_p50_ms=" << Percentile(lateness_ms, 50)
        << " lateness_p99_ms=" << Percentile(lateness_ms, 99);
  }
  if (elapsed_s > 0) out << " qps=" << completed_ok / elapsed_s;
  return out.str();
}

PhaseResult RunClosedLoop(const ClosedLoopConfig& config,
                          const std::vector<SearchRequest>& requests,
                          const ReplyCheck& check) {
  Progress("closed loop " + config.name);
  PhaseResult result;
  result.name = config.name;
  std::vector<PhaseResult> per_connection(config.connections);
  std::vector<XksClient> clients;
  for (size_t c = 0; c < config.connections; ++c) {
    Result<XksClient> client = ConnectLoopback(config.port);
    if (!client.ok()) {
      result.transport_error = client.status().ToString();
      return result;
    }
    clients.push_back(std::move(client).value());
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& mine = per_connection[c];
      Random random(config.seed * 7919 + c);
      std::vector<size_t> order(requests.size());
      EpochWatch epochs;
      for (size_t round = 0;; ++round) {
        if (round >= config.min_rounds && Clock::now() >= deadline) break;
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[random.Below(i)]);
        }
        for (size_t index : order) {
          if (config.min_rounds == 0 && Clock::now() >= deadline) break;
          const Clock::time_point sent = Clock::now();
          Result<XksClient::Reply> reply = clients[c].Call(requests[index]);
          const Clock::time_point done = Clock::now();
          if (!reply.ok()) {
            mine.transport_error = reply.status().ToString();
            return;
          }
          if (!reply.value().outcome.ok()) {
            mine.ops.Failed("query", StatusName(reply.value().outcome.status()));
            continue;
          }
          mine.ops.Ok("query");
          ++mine.completed_ok;
          mine.latency_ms.push_back(MsBetween(sent, done));
          const SearchResponse& response = reply.value().outcome.value();
          epochs.See(response.epoch);
          if (check) {
            std::string problem = check(index, response);
            if (!problem.empty()) mine.Fail(problem);
          }
        }
        if (config.min_rounds == 0 && Clock::now() >= deadline) break;
      }
      if (epochs.regressions > 0) {
        mine.Fail("epoch went back " + std::to_string(epochs.regressions) +
                  " times on one connection");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  for (PhaseResult& mine : per_connection) {
    result.completed_ok += mine.completed_ok;
    result.latency_ms.insert(result.latency_ms.end(), mine.latency_ms.begin(),
                             mine.latency_ms.end());
    result.ops.Merge(mine.ops);
    for (const std::string& f : mine.failure_examples) result.Fail(f);
    result.check_failures += mine.check_failures - mine.failure_examples.size();
    if (!mine.transport_error.empty()) result.transport_error = mine.transport_error;
  }
  return result;
}

std::vector<double> PoissonSchedule(double rate, double seconds, uint64_t seed) {
  // A fixed number of arrivals with exponential gaps: every seed offers the
  // same number of sessions, so sample counts and attempted operations do
  // not depend on the draw.
  Random random(seed ^ 0x706f6973ULL);
  const size_t count = static_cast<size_t>(rate * seconds + 0.5);
  std::vector<double> schedule;
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += random.Exponential(1.0 / rate);
    schedule.push_back(t);
  }
  return schedule;
}

namespace {

/// One open-loop connection: a sender thread walking its share of the
/// schedule (and any cursor pages the receiver queued), a receiver thread
/// matching replies to requests by id.
class OpenLoopConnection {
 public:
  OpenLoopConnection(XksClient client, Clock::time_point start,
                     std::vector<Session>* sessions)
      : client_(std::move(client)),
        start_(start),
        sessions_(sessions) {}

  void Assign(size_t session, double offset_s) {
    scheduled_.push_back(Scheduled{session, offset_s});
  }

  void Run(PhaseResult* out) {
    std::thread receiver([this] { ReceiveLoop(); });
    SendLoop();
    receiver.join();
    if (epochs_.regressions > 0) {
      result_.Fail("epoch went back " + std::to_string(epochs_.regressions) +
                   " times on one connection");
    }
    *out = std::move(result_);
  }

 private:
  struct Scheduled {
    size_t session;
    double offset_s;
  };
  struct InFlight {
    size_t session;
    size_t page;
    Clock::time_point timed_from;
  };
  struct NextPage {
    size_t session;
    size_t page;
    std::string cursor;
    Clock::time_point queued_at;
  };

  bool FinishedLocked() const {
    return next_scheduled_ == scheduled_.size() && inflight_.empty() &&
           next_pages_.empty();
  }

  void SendLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (stop_ || FinishedLocked()) break;
      const bool room = inflight_.size() < kMaxInflight;
      SearchRequest request;
      InFlight entry{};
      bool send = false;
      if (room && !next_pages_.empty()) {
        NextPage next = std::move(next_pages_.front());
        next_pages_.pop_front();
        request = (*sessions_)[next.session].first;
        request.cursor = std::move(next.cursor);
        entry = InFlight{next.session, next.page, next.queued_at};
        send = true;
      } else if (next_scheduled_ < scheduled_.size()) {
        const Scheduled& s = scheduled_[next_scheduled_];
        const Clock::time_point due =
            start_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.offset_s));
        if (Clock::now() < due || !room) {
          if (room) {
            cv_.wait_until(lock, due);
          } else {
            cv_.wait(lock);
          }
          continue;
        }
        request = (*sessions_)[s.session].first;
        entry = InFlight{s.session, 0, due};
        ++next_scheduled_;
        send = true;
        result_.lateness_ms.push_back(MsBetween(due, Clock::now()));
      } else {
        cv_.wait(lock);
        continue;
      }
      if (!send) continue;
      const uint64_t id = next_id_++;
      inflight_.emplace(id, entry);
      lock.unlock();
      Status sent = client_.Send(id, request);
      lock.lock();
      if (!sent.ok()) {
        result_.transport_error = sent.ToString();
        stop_ = true;
        client_.Abort();
        break;
      }
      cv_.notify_all();  // the receiver may be waiting for work
    }
    stop_ = true;
    cv_.notify_all();
  }

  void ReceiveLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] {
          return !inflight_.empty() || FinishedLocked() || stop_;
        });
        if (inflight_.empty()) return;  // finished or stopped
      }
      Result<XksClient::Reply> reply = client_.Receive();
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mutex_);
      if (!reply.ok()) {
        if (result_.transport_error.empty()) {
          result_.transport_error = reply.status().ToString();
        }
        stop_ = true;
        cv_.notify_all();
        return;
      }
      auto it = inflight_.find(reply.value().request_id);
      if (it == inflight_.end()) {
        result_.Fail("reply for unknown request id");
        continue;
      }
      const InFlight entry = it->second;
      inflight_.erase(it);
      Session& session = (*sessions_)[entry.session];
      const std::string op = entry.page == 0 ? "first_page" : "next_page";
      const Result<SearchResponse>& outcome = reply.value().outcome;
      if (!outcome.ok()) {
        result_.ops.Failed(op, StatusName(outcome.status()));
        PageSummary failed;
        failed.status = StatusName(outcome.status());
        session.pages.push_back(std::move(failed));
      } else {
        result_.ops.Ok(op);
        ++result_.completed_ok;
        const double ms = MsBetween(entry.timed_from, now);
        (entry.page == 0 ? result_.latency_ms : result_.next_page_ms).push_back(ms);
        epochs_.See(outcome.value().epoch);
        session.pages.push_back(Summarize(outcome.value()));
        if (entry.page < session.extra_pages && !outcome.value().next_cursor.empty()) {
          next_pages_.push_back(NextPage{entry.session, entry.page + 1,
                                         outcome.value().next_cursor, now});
        }
      }
      cv_.notify_all();
    }
  }

  XksClient client_;
  const Clock::time_point start_;
  std::vector<Session>* sessions_;
  std::vector<Scheduled> scheduled_;

  std::mutex mutex_;
  std::condition_variable cv_;
  size_t next_scheduled_ = 0;
  uint64_t next_id_ = 1;
  bool stop_ = false;
  std::unordered_map<uint64_t, InFlight> inflight_;
  std::deque<NextPage> next_pages_;
  EpochWatch epochs_;
  PhaseResult result_;
};

}  // namespace

PhaseResult RunOpenLoop(const OpenLoopConfig& config,
                        const std::vector<double>& schedule,
                        std::vector<Session>* sessions) {
  Progress("open loop " + config.name);
  PhaseResult result;
  result.name = config.name;
  std::vector<XksClient> clients;
  for (size_t c = 0; c < config.connections; ++c) {
    Result<XksClient> client = ConnectLoopback(config.port);
    if (!client.ok()) {
      result.transport_error = client.status().ToString();
      return result;
    }
    clients.push_back(std::move(client).value());
  }
  // Start a little in the future so every sender is waiting when the
  // first arrival is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::unique_ptr<OpenLoopConnection>> connections;
  for (size_t c = 0; c < config.connections; ++c) {
    connections.push_back(std::make_unique<OpenLoopConnection>(
        std::move(clients[c]), start, sessions));
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    connections[i % connections.size()]->Assign(i, schedule[i]);
  }
  std::vector<PhaseResult> per_connection(connections.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections.size(); ++c) {
    threads.emplace_back(
        [&, c] { connections[c]->Run(&per_connection[c]); });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  for (PhaseResult& mine : per_connection) {
    result.completed_ok += mine.completed_ok;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&result.latency_ms, mine.latency_ms);
    append(&result.next_page_ms, mine.next_page_ms);
    append(&result.lateness_ms, mine.lateness_ms);
    result.ops.Merge(mine.ops);
    for (const std::string& f : mine.failure_examples) result.Fail(f);
    result.check_failures += mine.check_failures - mine.failure_examples.size();
    if (!mine.transport_error.empty()) result.transport_error = mine.transport_error;
  }
  return result;
}

}  // namespace xks::loadbench
