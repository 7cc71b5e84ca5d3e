package repro.tdn

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
  * The multiset is kept sorted by expiry, so it is its own expiry index:
  * [[advance]] drops just the expired prefix, and [[edgesExpiringIn]] finds
  * its range by binary search.
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
  // The alive interactions are entries head until end: entry i is the pair
  // pairs(i) = u << 32 | v expiring at exps(i), ascending by expiry and in
  // arrival order among equal expiries. Expired entries leave at the front;
  // an add into full arrays first reclaims the slots before head.
  private var exps           = new Array[Int](16)
  private var pairs          = new Array[Long](16)
  private var head           = 0
  private var end            = 0
  private var clock          = 0
  private var graph: Digraph = null

  private def srcOf(p: Long): Int = (p >>> 32).toInt
  private def dstOf(p: Long): Int = p.toInt

  /** Current time t. */
  def now: Int = clock

  /** Throws IllegalArgumentException unless every node id in `batch` is ≥ 0
    * and, once the graph exists, below its universe, and every expiry
    * now + lifetime fits in an Int.
    */
  def check(batch: Iterable[TimedEdge]): Unit = {
    val n = if (graph == null) Int.MaxValue else graph.universe
    batch.foreach { e =>
      require(e.u >= 0 && e.v >= 0 && e.u < n && e.v < n, s"edge (${e.u},${e.v}) outside universe $n")
      require(
        e.lifetime <= Int.MaxValue - clock,
        s"edge (${e.u},${e.v}) with lifetime ${e.lifetime} would expire past Int.MaxValue at now = $clock",
      )
    }
  }

  /** Add a batch of edges arriving at the current time; a batch that fails
    * [[check]] changes nothing.
    */
  def add(batch: Iterable[TimedEdge]): Unit = {
    check(batch)
    batch.foreach(addEdge)
  }

  /** Add edges(from until until), a range of a batch that has passed
    * [[check]] at the current time, without checking it again.
    */
  private[repro] def addChecked(edges: Array[TimedEdge], from: Int, until: Int): Unit = {
    var i = from
    while (i < until) { addEdge(edges(i)); i += 1 }
  }

  private def addEdge(e: TimedEdge): Unit = {
    val expiry = clock + e.lifetime
    insert(e.u.toLong << 32 | e.v, expiry)
    if (graph != null) graph.addEdge(e.u, e.v, expiry)
  }

  /** Insert an entry after every entry expiring no later. Full arrays first
    * reclaim the expired slots before head, or grow by half when that would
    * free fewer than an eighth of them: reclaiming then copies at most seven
    * entries per add, and grown arrays hold at most 12/7 of the alive count.
    */
  private def insert(p: Long, expiry: Int): Unit = {
    if (end == exps.length) {
      val n   = end - head
      val cap = if (n > exps.length - exps.length / 8) exps.length + exps.length / 2 else exps.length
      val e   = if (cap == exps.length) exps else new Array[Int](cap)
      val q   = if (cap == pairs.length) pairs else new Array[Long](cap)
      System.arraycopy(exps, head, e, 0, n)
      System.arraycopy(pairs, head, q, 0, n)
      exps = e; pairs = q; head = 0; end = n
    }
    val i = if (expiry == Int.MaxValue) end else firstAtLeast(expiry + 1)
    System.arraycopy(exps, i, exps, i + 1, end - i)
    System.arraycopy(pairs, i, pairs, i + 1, end - i)
    exps(i) = expiry
    pairs(i) = p
    end += 1
  }

  /** The first entry expiring at or after `x`, or `end` if none does. */
  private def firstAtLeast(x: Int): Int = {
    var lo = head
    var hi = end
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (exps(m) < x) lo = m + 1 else hi = m
    }
    lo
  }

  /** Advance the clock one step; edges whose lifetime reached 0 are dropped. */
  def advance(): Unit = {
    clock += 1
    while (head < end && exps(head) <= clock) {
      if (graph != null) graph.expire(srcOf(pairs(head)), dstOf(pairs(head)), clock)
      head += 1
    }
  }

  /** Alive edges at the current time, with remaining lifetime (≥ 1), by
    * ascending remaining lifetime.
    */
  private[repro] def aliveEdges: Seq[TimedEdge] =
    (head until end).map(i => TimedEdge(srcOf(pairs(i)), dstOf(pairs(i)), exps(i) - clock))

  /** Number of alive edges (with multiplicity). */
  def aliveCount: Int = end - head

  /** Largest remaining lifetime among alive edges, 0 if empty. */
  private[repro] def maxRemainingLifetime: Int = if (end == head) 0 else exps(end - 1) - clock

  /** Multiplicity of alive interactions per (u, v) — the `x` that feeds the
    * IC-model diffusion probability p_uv = 2/(1+e^{−0.2x}) − 1 (§V-C).
    */
  def interactionCounts: Map[(Int, Int), Int] =
    (head until end).groupBy(i => (srcOf(pairs(i)), dstOf(pairs(i)))).view.mapValues(_.size).toMap

  /** Distinct nodes present in G_t. */
  def aliveNodes: Set[Int] =
    (head until end).iterator.flatMap(i => Iterator(srcOf(pairs(i)), dstOf(pairs(i)))).toSet

  /** The edges (u, v) of the live graph whose expiry there — the largest
    * among their alive interactions — is in [lo, hi), as parallel arrays of
    * tails and heads in expiry order: the current entries in that range,
    * found by two binary searches, skipping an entry whose expiry a later add
    * raised. An edge repeated at its graph expiry is listed once per repeat.
    * Needs the graph ([[toDigraph]]).
    */
  def edgesExpiringIn(lo: Int, hi: Int): (Array[Int], Array[Int]) = {
    require(graph != null, "edgesExpiringIn needs the live graph: call toDigraph first")
    val from  = firstAtLeast(lo)
    val until = math.max(from, firstAtLeast(hi))
    val us    = new Array[Int](until - from)
    val vs    = new Array[Int](until - from)
    var n     = 0
    var i     = from
    while (i < until) {
      val u = srcOf(pairs(i))
      val v = dstOf(pairs(i))
      if (graph.expiryOf(u, v) == exps(i)) { us(n) = u; vs(n) = v; n += 1 }
      i += 1
    }
    (java.util.Arrays.copyOf(us, n), java.util.Arrays.copyOf(vs, n))
  }

  /** G_t as a reachability graph over `universe` node ids. The graph is built
    * on the first call and kept current by [[add]] and [[advance]] after
    * that: every call returns the same live view, not a snapshot, and a call
    * with another universe is rejected.
    */
  def toDigraph(universe: Int): Digraph = {
    if (graph == null) {
      val g = new Digraph(universe)
      (head until end).foreach(i => g.addEdge(srcOf(pairs(i)), dstOf(pairs(i)), exps(i)))
      graph = g
    }
    require(graph.universe == universe, s"the graph exists over universe ${graph.universe}, not $universe")
    graph
  }
}
