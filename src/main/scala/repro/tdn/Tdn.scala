package repro.tdn

import scala.collection.mutable.ArrayBuffer
import repro.core.Digraph

/** An interaction edge as it enters the TDN: u influenced v, with the lifetime
  * assigned at arrival (l_τ(e) in the paper, 1 ≤ lifetime ≤ L).
  */
final case class TimedEdge(u: Int, v: Int, lifetime: Int) {
  require(lifetime >= 1, s"lifetime must be >= 1, got $lifetime")
}

/** The time-decaying dynamic interaction network G_t (§II-B).
  *
  * Stores the alive multiset of edges. Rather than decrementing every lifetime
  * each step, each edge stores its expiry time: an edge arriving at time τ with
  * lifetime l is alive for t ∈ [τ, τ+l) and its remaining lifetime at time t is
  * `expiry − t`. [[advance]] moves the clock and drops expired edges.
  *
  * From the first [[toDigraph]] call on, the TDN also owns the single live
  * reachability graph of G_t: one edge per alive (u, v), carrying the largest
  * expiry among its interactions. [[add]] raises expiries and [[advance]]
  * removes the edges no alive interaction holds any more.
  *
  * `now` starts at 0; callers add the batch for step t while `now == t`, then
  * call [[advance]] once per step.
  */
final class Tdn {
  private final case class Alive(u: Int, v: Int, expiry: Int)

  private val edges          = new ArrayBuffer[Alive]() // in arrival order
  private var clock          = 0
  private var graph: Digraph = null

  /** Current time t. */
  def now: Int = clock

  /** Throws IllegalArgumentException unless every node id in `batch` is ≥ 0
    * and, once the graph exists, below its universe.
    */
  def check(batch: Iterable[TimedEdge]): Unit = {
    val n = if (graph == null) Int.MaxValue else graph.universe
    batch.foreach { e =>
      require(e.u >= 0 && e.v >= 0 && e.u < n && e.v < n, s"edge (${e.u},${e.v}) outside universe $n")
    }
  }

  /** Add a batch of edges arriving at the current time; a batch that fails
    * [[check]] changes nothing.
    */
  def add(batch: Iterable[TimedEdge]): Unit = {
    check(batch)
    batch.foreach { e =>
      val a = Alive(e.u, e.v, clock + e.lifetime)
      edges += a
      if (graph != null) graph.addEdge(a.u, a.v, a.expiry)
    }
  }

  /** Advance the clock one step; edges whose lifetime reached 0 are dropped. */
  def advance(): Unit = {
    clock += 1
    if (graph != null) edges.foreach(a => if (a.expiry <= clock) graph.expire(a.u, a.v, clock))
    edges.filterInPlace(_.expiry > clock)
  }

  /** Alive edges at the current time, with remaining lifetime (≥ 1). */
  def aliveEdges: Seq[TimedEdge] = edges.map(a => TimedEdge(a.u, a.v, a.expiry - clock)).toSeq

  /** Number of alive edges (with multiplicity). */
  def aliveCount: Int = edges.size

  /** Largest remaining lifetime among alive edges, 0 if empty. */
  def maxRemainingLifetime: Int = edges.map(_.expiry - clock).maxOption.getOrElse(0)

  /** Multiplicity of alive interactions per (u, v) — the `x` that feeds the
    * IC-model diffusion probability p_uv = 2/(1+e^{−0.2x}) − 1 (§V-C).
    */
  def interactionCounts: Map[(Int, Int), Int] =
    edges.groupBy(a => (a.u, a.v)).view.mapValues(_.size).toMap

  /** G_t as a reachability graph over `universe` node ids. The graph is built
    * on the first call and kept current by [[add]] and [[advance]] after
    * that: every call returns the same live view, not a snapshot, and a call
    * with another universe is rejected.
    */
  def toDigraph(universe: Int): Digraph = {
    if (graph == null) {
      val g = new Digraph(universe)
      edges.foreach(a => g.addEdge(a.u, a.v, a.expiry))
      graph = g
    }
    require(graph.universe == universe, s"the graph exists over universe ${graph.universe}, not $universe")
    graph
  }

  /** Distinct nodes present in G_t. */
  def aliveNodes: Set[Int] = edges.iterator.flatMap(a => Iterator(a.u, a.v)).toSet
}
