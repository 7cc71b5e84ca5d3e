package repro.stream

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic interaction-stream generators standing in for the paper's six
  * datasets (Table I), at ~1/100 scale — see DESIGN.md §4 for the
  * substitution rationale.
  *
  * Every generator returns a DataFrame (ts INT, src INT, dst INT) ordered by
  * arrival, deterministic in the spec's seed:
  *   - `src` is the influencer (place / retweeted user / question author),
  *     drawn from a Zipf(α) rank distribution (influence is heavy-tailed);
  *   - `dst` is the influencee, drawn uniformly;
  *   - bipartite datasets (LBSN check-ins) put places in [0, nSrc) and users
  *     in [nSrc, nSrc+nDst); social datasets share one id space and exclude
  *     self-loops.
  */
object InteractionStreams {

  /** Shape of one synthetic interaction stream.
    *
    * @param nSrc      influencer universe size (places / users)
    * @param nDst      influencee universe size; ignored when not bipartite
    * @param interactions total interaction count
    * @param steps     number of discrete time steps the stream spans
    * @param zipfAlpha skew of the influencer popularity distribution
    * @param bipartite LBSN-style two-sided universe if true
    */
  final case class StreamSpec(
      name: String,
      nSrc: Int,
      nDst: Int,
      interactions: Long,
      steps: Int,
      zipfAlpha: Double,
      bipartite: Boolean,
      seed: Long,
  ) {
    /** Total node-id universe the stream draws from. */
    def universe: Int = if (bipartite) nSrc + nDst else nSrc
  }

  /** The six datasets of Table I at 1/100 scale. */
  val brightkite: StreamSpec =
    StreamSpec("brightkite", nSrc = 7730, nDst = 514, interactions = 47473L, steps = 4747, zipfAlpha = 0.9, bipartite = true, seed = 101L)
  val gowalla: StreamSpec =
    StreamSpec("gowalla", nSrc = 12810, nDst = 1071, interactions = 64429L, steps = 6443, zipfAlpha = 0.9, bipartite = true, seed = 102L)
  val twitterHiggs: StreamSpec =
    StreamSpec("twitter-higgs", nSrc = 3042, nDst = 3042, interactions = 5555L, steps = 2777, zipfAlpha = 1.1, bipartite = false, seed = 103L)
  val twitterHK: StreamSpec =
    StreamSpec("twitter-hk", nSrc = 498, nDst = 498, interactions = 29304L, steps = 4884, zipfAlpha = 1.0, bipartite = false, seed = 104L)
  val stackOverflowC2Q: StreamSpec =
    StreamSpec("stackoverflow-c2q", nSrc = 16276, nDst = 16276, interactions = 136646L, steps = 5000, zipfAlpha = 1.0, bipartite = false, seed = 105L)
  val stackOverflowC2A: StreamSpec =
    StreamSpec("stackoverflow-c2a", nSrc = 16398, nDst = 16398, interactions = 175350L, steps = 5000, zipfAlpha = 1.0, bipartite = false, seed = 106L)

  val all: Seq[StreamSpec] =
    Seq(brightkite, gowalla, twitterHiggs, twitterHK, stackOverflowC2Q, stackOverflowC2A)

  /** Paper Table I numbers, for the Table I bench (nodes, interactions). */
  val paperTableI: Map[String, (Long, Long)] = Map(
    "brightkite"        -> (51406L + 772966L, 4747281L),
    "gowalla"           -> (107092L + 1280969L, 6442892L),
    "twitter-higgs"     -> (304198L, 555481L),
    "twitter-hk"        -> (49808L, 2930439L),
    "stackoverflow-c2q" -> (1627635L, 13664641L),
    "stackoverflow-c2a" -> (1639761L, 17535031L),
  )

  /** Zipf(α) rank draw in [1, n] by inverting the continuous-approximation
    * CDF F(r) ≈ (r^{1−α} − 1)/(n^{1−α} − 1) (α ≠ 1; log-uniform at α = 1).
    * Unlike the crude 1/(U·norm) shortcut, this keeps the head probability at
    * ~r^{−α}/H_n — e.g. the top place gets ~7% of Brightkite check-ins, not
    * ~96%.
    */
  private def zipfRank(n: Int, alpha: Double, seed: Long) = {
    val u = rand(seed)
    val raw =
      if (math.abs(alpha - 1.0) < 1e-9) exp(u * math.log(n.toDouble))
      else {
        val a = 1.0 - alpha
        pow(lit(1.0) + u * (math.pow(n.toDouble, a) - 1.0), lit(1.0 / a))
      }
    least(lit(n.toLong), greatest(lit(1L), raw.cast("long")))
  }

  /** Partition count of every generated stream. `rand(seed)` seeds each
    * partition by its index, so a stream is fixed by its seed only once its
    * partitioning is. 4 is what `spark.range` chose on the 4-core host that
    * recorded EXPERIMENTS.md, and what perfbench's `spark.default.parallelism`
    * gives, so no recorded stream moved.
    */
  private val Partitions = 4

  private def gen(
      spark: SparkSession,
      spec: StreamSpec,
      rows: Long,
      tsExpr: org.apache.spark.sql.Column,
  ): DataFrame = {
    val src = (zipfRank(spec.nSrc, spec.zipfAlpha, spec.seed) - 1).cast("int").as("src")
    val base = spark.range(0, rows, 1, Partitions).select(tsExpr.cast("int").as("ts"), src,
      if (spec.bipartite)
        (lit(spec.nSrc) + (rand(spec.seed + 1) * spec.nDst).cast("int")).as("dst")
      else {
        // Influencees are heavy-tailed too (active users retweet often), with
        // the rank order decorrelated from the influencer ranking by a fixed
        // affine permutation — hubs influencing hubs yields the overlapping
        // multi-hop cascades real retweet graphs exhibit.
        val dstRank = zipfRank(spec.nSrc, 0.8, spec.seed + 1) - 1
        (((dstRank * 131) + 17) % spec.nSrc).cast("int").as("dst")
      },
    )
    // Social datasets: no self-influence; shift colliding dst by one.
    if (spec.bipartite) base
    else base.withColumn(
      "dst",
      when(col("src") === col("dst"), (col("dst") + 1) % spec.nSrc).otherwise(col("dst")),
    )
  }

  /** Generate the interaction stream for `spec` as (ts, src, dst), with
    * interactions spread evenly over the spec's `steps` time steps.
    */
  def generate(spark: SparkSession, spec: StreamSpec): DataFrame =
    gen(spark, spec, spec.interactions, (col("id") * spec.steps) / spec.interactions)

  /** Stream restricted to the first `maxSteps` time steps. */
  def prefix(spark: SparkSession, spec: StreamSpec, maxSteps: Int): DataFrame =
    generate(spark, spec).filter(col("ts") < maxSteps)

  /** The first `n` interactions re-timed to one interaction per time step
    * (ts = arrival index) — the paper's experimental setting (§V-B: "we
    * assume one interaction arrives at a time").
    */
  def unitStepPrefix(spark: SparkSession, spec: StreamSpec, n: Int): DataFrame =
    gen(spark, spec, math.min(n.toLong, spec.interactions), col("id"))
}
