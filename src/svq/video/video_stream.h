#ifndef SVQ_VIDEO_VIDEO_STREAM_H_
#define SVQ_VIDEO_VIDEO_STREAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "svq/video/synthetic_video.h"
#include "svq/video/types.h"

namespace svq::video {

/// Reference to one shot of a video: index plus its frame range.
struct ShotRef {
  VideoId video = kInvalidVideoId;
  ShotIndex shot = 0;
  Interval frames;
};

/// Reference to one clip of a video: index, frame range, and the shot
/// decomposition. The trailing clip of a video may be partial.
struct ClipRef {
  VideoId video = kInvalidVideoId;
  ClipIndex clip = 0;
  Interval frames;
  std::vector<ShotRef> shots;

  /// The shot indices of `shots` as one range.
  Interval ShotRange() const {
    return shots.empty() ? Interval{}
                         : Interval{shots.front().shot, shots.back().shot + 1};
  }
};

/// Builds the ClipRef for `clip` in a video of `num_frames` frames.
ClipRef MakeClipRef(const VideoLayout& layout, VideoId video, ClipIndex clip,
                    int64_t num_frames);

/// Pull-based clip iterator over a (possibly unbounded) video stream; the
/// granularity matches the online algorithms, which consume one clip per
/// step (paper Alg. 1 line 5, `X.next()`).
class VideoStream {
 public:
  virtual ~VideoStream() = default;

  /// Next clip, or nullopt when the stream ends.
  virtual std::optional<ClipRef> NextClip() = 0;

  virtual const VideoLayout& layout() const = 0;
  virtual VideoId video_id() const = 0;
};

/// Streams the clips of a synthetic video in order.
class SyntheticVideoStream final : public VideoStream {
 public:
  SyntheticVideoStream(std::shared_ptr<const SyntheticVideo> video,
                       VideoId id);

  std::optional<ClipRef> NextClip() override;
  const VideoLayout& layout() const override { return video_->layout(); }
  VideoId video_id() const override { return id_; }

  /// Restarts iteration from the first clip.
  void Reset() { next_clip_ = 0; }

  const SyntheticVideo& video() const { return *video_; }

 private:
  std::shared_ptr<const SyntheticVideo> video_;
  VideoId id_;
  ClipIndex next_clip_ = 0;
};

}  // namespace svq::video

#endif  // SVQ_VIDEO_VIDEO_STREAM_H_
