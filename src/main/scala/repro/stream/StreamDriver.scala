package repro.stream

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.StreamingInfluenceAlgo
import repro.tdn.{Tdn, TimedEdge}

/** Micro-batch experiment harness: replays per-time-step interaction batches
  * through a set of streaming trackers, evaluates every returned seed set
  * against the *same* ground-truth TDN (fair cross-algorithm values), and
  * ledgers per-algorithm oracle calls and wall time (for throughput).
  */
object StreamDriver {

  /** A replayable stream: `steps(t)` is the batch Ē_t. */
  final case class Batches(universe: Int, steps: IndexedSeq[Seq[TimedEdge]]) {
    def totalEdges: Long = steps.iterator.map(_.size.toLong).sum
  }

  /** The (ts, src, dst, lifetime) columns of `df`, collected to the driver. */
  private[stream] def collectRows(df: DataFrame): Array[Row] =
    df.select("ts", "src", "dst", "lifetime").collect()

  /** Each (ts, src, dst, lifetime) row as (ts, edge). A row is rejected,
    * naming it, unless it has no nulls, ts ≥ 0, src and dst in [0, universe)
    * and an expiry ts + lifetime that fits in an Int, with lifetime ≥ 1: the
    * TDN's checks at step ts, made before any step closes.
    */
  private[stream] def parseRows(rows: Array[Row], universe: Int): Array[(Int, TimedEdge)] = rows.map { r =>
    def inUniverse(i: Int) = r.getInt(i) >= 0 && r.getInt(i) < universe
    if ((0 to 3).exists(r.isNullAt) || r.getInt(0) < 0 || !inUniverse(1) || !inUniverse(2) || r.getInt(3) < 1 ||
        r.getInt(3) > Int.MaxValue - r.getInt(0))
      throw new IllegalArgumentException(
        s"malformed interaction row $r: need no nulls, ts >= 0, src and dst in [0, $universe), 1 <= lifetime <= Int.MaxValue - ts")
    (r.getInt(0), TimedEdge(r.getInt(1), r.getInt(2), r.getInt(3)))
  }

  /** Collect a (ts, src, dst, lifetime) DataFrame into per-step batches.
    * Steps absent from the data become empty batches (the TDN still decays);
    * rows at or beyond `maxSteps` are dropped, malformed rows rejected.
    */
  def batchesFromDf(df: DataFrame, universe: Int, maxSteps: Int): Batches = {
    val byTs  = parseRows(collectRows(df), universe).filter(_._1 < maxSteps).groupBy(_._1)
    val steps = (0 until maxSteps).map(t => byTs.get(t).map(_.map(_._2).toSeq).getOrElse(Nil))
    Batches(universe, steps)
  }

  /** One algorithm's measurement at one query step. */
  final case class StepRecord(
      t: Int,
      algo: String,
      seeds: Seq[Int],
      value: Int,          // f_t(seeds) on the ground-truth G_t
      oracleCallsCum: Long,
      elapsedNanosCum: Long,
  )

  /** Problem 1's step, shared by both drivers: at t = [[now]] every tracker
    * observes Ē_t and, at a query step, answers S_t, scored on the ground-truth
    * G_t before G_t decays. The loop owns that TDN (its `now` is the logical
    * clock), each tracker's cumulative clock (timing exactly `observe` +
    * `querySolution` + `endStep`) and records, keyed by distinct names.
    * The TDN's graph over `universe` exists from construction, so a batch
    * with a node id outside it is rejected before any tracker sees it, and
    * the step can be retried.
    */
  final class StepLoop(universe: Int, algos: Seq[StreamingInfluenceAlgo]) {
    private val names = algos.map(_.name)
    require(names.distinct.size == names.size,
      s"tracker names must be distinct: ${names.diff(names.distinct).distinct.mkString(", ")} repeat")

    private val trackers = algos.toVector
    private val truth    = new Tdn
    private val gt       = truth.toDigraph(universe)
    private val elapsed  = new Array[Long](trackers.size)
    private val out      = Array.fill(trackers.size)(Vector.empty[StepRecord])

    /** Time of the next step. */
    def now: Int = truth.now

    /** Run step [[now]] on `batch`; record every tracker iff `query`. */
    def step(batch: Seq[TimedEdge], query: Boolean): Unit = {
      truth.add(batch)
      var i = 0
      while (i < trackers.size) {
        val algo = trackers(i)
        val t0   = System.nanoTime()
        algo.observe(batch)
        val seeds = if (query) algo.querySolution else Nil
        algo.endStep()
        elapsed(i) += System.nanoTime() - t0
        if (query) {
          // Digraph rejects a seed outside the universe; scoring keeps
          // counting one as reaching nothing, as the replay benchmark's
          // self-test expects.
          val value = gt.spreadOf(seeds.filter(s => s >= 0 && s < universe))
          out(i) :+= StepRecord(now, algo.name, seeds, value, algo.oracleCalls, elapsed(i))
        }
        i += 1
      }
      truth.advance()
    }

    /** Records so far, by tracker name, in time order. */
    def records: Map[String, Vector[StepRecord]] = names.zip(out).toMap
  }

  /** Replay `batches` through `algos`.
    *
    * @param queryEvery query (and evaluate) every `queryEvery` steps
    * @return records grouped by algorithm name, in time order
    */
  def run(
      batches: Batches,
      algos: Seq[StreamingInfluenceAlgo],
      queryEvery: Int = 1,
  ): Map[String, Vector[StepRecord]] = {
    require(queryEvery >= 1, s"queryEvery must be >= 1, got $queryEvery")
    val loop = new StepLoop(batches.universe, algos)
    val last = batches.steps.length - 1
    batches.steps.indices.foreach(t => loop.step(batches.steps(t), (t + 1) % queryEvery == 0 || t == last))
    loop.records
  }

  /** Throughput in processed edges per second for one algorithm's records. */
  def throughputEdgesPerSec(batches: Batches, records: Vector[StepRecord]): Double = {
    val nanos = records.lastOption.map(_.elapsedNanosCum).getOrElse(0L)
    if (nanos == 0L) 0.0 else batches.totalEdges.toDouble * 1e9 / nanos
  }
}
