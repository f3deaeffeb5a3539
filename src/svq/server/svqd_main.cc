// svqd — the SVQ-ACT network daemon: serves the dialect over the wire
// protocol of docs/server.md, with admission control, per-request deadlines,
// and graceful drain on SIGINT/SIGTERM.
//
// The daemon registers and ingests a synthetic demo repository at startup
// (videos `serving_0..N-1`, action 'smoking' correlated with object 'cup'),
// the same workload the serving benches use, so a fresh checkout can run a
// server + client pair with zero external data.
//
// Run:   ./build/svqd --port 0 --videos 2 --scale 0.25
// Query: ./build/svq_client --port <bound port>
//          "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS serving_0
//           PRODUCE clipID, obj USING ObjectDetector, act USING
//           ActionRecognizer) WHERE act='smoking' AND obj.include('cup')
//           ORDER BY RANK(act, obj) LIMIT 3"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "svq/core/engine.h"
#include "svq/server/server.h"
#include "svq/video/synthetic_video.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

svq::Result<std::shared_ptr<const svq::video::SyntheticVideo>> MakeVideo(
    int index, double scale) {
  svq::video::SyntheticVideoSpec spec;
  spec.name = "serving_" + std::to_string(index);
  spec.num_frames = static_cast<int64_t>(120000 * scale);
  spec.seed = 9100 + static_cast<uint64_t>(index);
  spec.actions.push_back({"smoking", 350.0, 4500.0});
  svq::video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 2600.0;
  spec.objects.push_back(cup);
  return svq::video::SyntheticVideo::Generate(spec);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host A] [--port N] [--videos N] [--scale S]\n"
      "          [--max-in-flight N]     event loops, one thread each: jobs\n"
      "                                  running at once (default 4)\n"
      "          [--max-queue N]         jobs read but not yet run beyond\n"
      "                                  those (default 16)\n"
      "          [--max-connections N]   open connections over all loops\n"
      "                                  (default 64)\n"
      "          [--threads-per-query N] [--port-file PATH] [--drain-ms N]\n"
      "          [--cache-mb N]          query cache budget, 0 disables\n"
      "                                  (default 64)\n"
      "          [--metrics-dump PATH]   Prometheus text dump on exit\n"
      "                                  ('-' writes to stdout)\n"
      "          [--ingest-dir DIR]      persist demo ingest artifacts under\n"
      "                                  DIR (one file per video)\n"
      "          [--catalog DIR]         serve a previously written ingest\n"
      "                                  directory instead of regenerating\n"
      "                                  the demo; corrupt video files are\n"
      "                                  quarantined and skipped\n",
      argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  svq::server::ServerOptions options;
  int videos = 2;
  double scale = 0.25;
  int drain_ms = 5000;
  int cache_mb = 64;
  std::string port_file;
  std::string metrics_dump;
  std::string ingest_dir;
  std::string catalog_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--host" && (value = next())) {
      options.bind_address = value;
    } else if (arg == "--port" && (value = next())) {
      options.port = static_cast<uint16_t>(std::atoi(value));
    } else if (arg == "--videos" && (value = next())) {
      videos = std::atoi(value);
    } else if (arg == "--scale" && (value = next())) {
      scale = std::atof(value);
    } else if (arg == "--max-in-flight" && (value = next())) {
      options.max_in_flight = std::atoi(value);
    } else if (arg == "--max-queue" && (value = next())) {
      options.max_queue = std::atoi(value);
    } else if (arg == "--max-connections" && (value = next())) {
      options.max_connections = std::atoi(value);
    } else if (arg == "--threads-per-query" && (value = next())) {
      options.threads_per_query = std::atoi(value);
    } else if (arg == "--port-file" && (value = next())) {
      port_file = value;
    } else if (arg == "--drain-ms" && (value = next())) {
      drain_ms = std::atoi(value);
    } else if (arg == "--cache-mb" && (value = next())) {
      cache_mb = std::atoi(value);
    } else if (arg == "--metrics-dump" && (value = next())) {
      metrics_dump = value;
    } else if (arg == "--ingest-dir" && (value = next())) {
      ingest_dir = value;
    } else if (arg == "--catalog" && (value = next())) {
      catalog_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }

  // Serving is where repeated statements pay off: enable the snapshot query
  // cache unless explicitly zeroed (single-shot tools leave it off).
  svq::cache::CacheOptions cache_options;
  if (cache_mb > 0) {
    cache_options =
        svq::cache::CacheOptions::Enabled(static_cast<size_t>(cache_mb));
  }
  svq::core::IngestOptions ingest_options;
  if (!ingest_dir.empty()) {
    ingest_options.backend = svq::core::IngestOptions::TableBackend::kDisk;
    ingest_options.directory = ingest_dir;
  }
  svq::core::VideoQueryEngine engine(svq::models::ModelSuite(),
                                     svq::core::OnlineConfig(),
                                     ingest_options, cache_options);
  if (!catalog_dir.empty()) {
    // Restart path: open every video file under the catalog directory
    // instead of regenerating the demo. A corrupt file is quarantined
    // (renamed aside by OpenIngestedVideo) and skipped — one damaged video
    // must never keep the rest of the catalog from serving. Temp files of
    // an interrupted write and quarantined files are not videos; a
    // per-video directory of an earlier format is reported and skipped.
    std::error_code ec;
    std::vector<std::string> entries;
    for (const auto& dirent :
         std::filesystem::directory_iterator(catalog_dir, ec)) {
      const std::string name = dirent.path().filename().string();
      if (name.find(".tmp.") != std::string::npos ||
          name.ends_with(".quarantined")) {
        continue;
      }
      entries.push_back(dirent.path().string());
    }
    if (ec) {
      std::fprintf(stderr, "svqd: cannot read catalog '%s': %s\n",
                   catalog_dir.c_str(), ec.message().c_str());
      return 1;
    }
    std::sort(entries.begin(), entries.end());
    int opened = 0;
    for (const std::string& path : entries) {
      auto ingested = svq::core::OpenIngestedVideo(path);
      if (!ingested.ok()) {
        std::fprintf(stderr, "svqd: skipping '%s': %s\n", path.c_str(),
                     ingested.status().ToString().c_str());
        continue;
      }
      const std::string name = ingested->name;
      auto id = engine.AddIngested(std::make_shared<const svq::core::IngestedVideo>(
          std::move(ingested).value()));
      if (!id.ok()) {
        std::fprintf(stderr, "svqd: AddIngested '%s' failed: %s\n",
                     name.c_str(), id.status().ToString().c_str());
        continue;
      }
      std::printf("svqd: opened ingested video '%s' from %s\n", name.c_str(),
                  path.c_str());
      ++opened;
    }
    if (opened == 0) {
      std::fprintf(stderr, "svqd: no servable videos in catalog '%s'\n",
                   catalog_dir.c_str());
      return 1;
    }
    std::printf("svqd: serving %d video(s) from catalog %s\n", opened,
                catalog_dir.c_str());
    std::fflush(stdout);
  } else {
    std::printf("svqd: ingesting %d demo video(s) at scale %.2f ...\n",
                videos, scale);
    std::fflush(stdout);
    for (int i = 0; i < videos; ++i) {
      auto video = MakeVideo(i, scale);
      if (!video.ok()) {
        std::fprintf(stderr, "svqd: video generation failed: %s\n",
                     video.status().ToString().c_str());
        return 1;
      }
      if (auto id = engine.AddVideo(*video); !id.ok()) {
        std::fprintf(stderr, "svqd: AddVideo failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
    }
    if (auto status = engine.IngestAll(); !status.ok()) {
      std::fprintf(stderr, "svqd: ingest failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  svq::server::Server server(&engine, options);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "svqd: start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("svqd: listening on %s:%u (%d loops, %d queued)\n",
              options.bind_address.c_str(), server.port(),
              options.max_in_flight, options.max_queue);
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
  }

  // Graceful drain on SIGINT/SIGTERM via the self-pipe trick: the handler
  // only writes a byte; the main thread does the actual shutdown.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "svqd: pipe failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("svqd: signal received, draining (budget %d ms) ...\n",
              drain_ms);
  std::fflush(stdout);
  server.Shutdown(std::chrono::milliseconds(drain_ms));
  const svq::observability::MetricsSnapshot stats = server.Metrics();
  const auto queries = [&stats](const std::string& outcome) {
    return stats.ValueOf("svqd_queries_" + outcome + "_total").value_or(0.0);
  };
  std::printf("svqd: drained. accepted=%.0f ok=%.0f rejected=%.0f "
              "cancelled=%.0f deadline_exceeded=%.0f failed=%.0f\n",
              queries("accepted"), queries("ok"), queries("rejected"),
              queries("cancelled"), queries("deadline_exceeded"),
              queries("failed"));
  if (!metrics_dump.empty()) {
    if (metrics_dump == "-") {
      std::fflush(stdout);
      server.DumpPrometheus(std::cout);
      std::cout.flush();
    } else {
      std::ofstream out(metrics_dump, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "svqd: cannot open metrics dump file '%s'\n",
                     metrics_dump.c_str());
        return 1;
      }
      server.DumpPrometheus(out);
    }
  }
  return 0;
}
