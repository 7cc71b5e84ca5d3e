package repro.stream

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class InteractionStreamsSpec extends SparkSpec {

  private lazy val bk = InteractionStreams.generate(spark, InteractionStreams.brightkite).cache()

  /** Row count and an order-sensitive hash of the (ts, src, dst) rows. */
  private def checksum(df: DataFrame): (Int, Long) = {
    val rows = df.collect()
    val hash = rows.foldLeft(17L) { (h, r) =>
      h * 1000003L + (r.getInt(0).toLong << 42 ^ r.getInt(1).toLong << 21 ^ r.getInt(2).toLong)
    }
    (rows.length, hash)
  }

  test("every spec's universe matches its bipartite flag") {
    assert(InteractionStreams.brightkite.universe == 7730 + 514)
    assert(InteractionStreams.twitterHiggs.universe == 3042)
  }

  test("generated interaction count matches the spec") {
    assert(bk.count() == InteractionStreams.brightkite.interactions)
  }

  test("generation is deterministic in the seed") {
    val a = InteractionStreams.generate(spark, InteractionStreams.twitterHK)
    val b = InteractionStreams.generate(spark, InteractionStreams.twitterHK)
    assert(a.except(b).count() == 0 && b.except(a).count() == 0)
  }

  test("streams are pinned by their seed, not by the host's core count") {
    // Recorded on a 4-core host; a partition count that followed the cores
    // would change them elsewhere.
    val c2q = InteractionStreams.unitStepPrefix(spark, InteractionStreams.stackOverflowC2Q, 2000)
    assert(checksum(c2q) == ((2000, 5020223499969485794L)))
    val gowalla = InteractionStreams.generate(spark, InteractionStreams.gowalla)
    assert(checksum(gowalla) == ((64429, 4790150260930543664L)))
  }

  test("timestamps cover [0, steps) and are non-decreasing in arrival order") {
    val spec  = InteractionStreams.twitterHiggs
    val df    = InteractionStreams.generate(spark, spec)
    val stats = df.agg(min("ts"), max("ts")).collect()(0)
    assert(stats.getInt(0) == 0)
    assert(stats.getInt(1) == spec.steps - 1)
  }

  test("bipartite streams keep places and users in disjoint id ranges") {
    val spec = InteractionStreams.brightkite
    val bad = bk.filter(
      col("src") < 0 || col("src") >= spec.nSrc ||
        col("dst") < spec.nSrc || col("dst") >= spec.universe,
    )
    assert(bad.count() == 0)
  }

  test("social streams have no self-loops and ids within the universe") {
    val spec = InteractionStreams.twitterHK
    val df   = InteractionStreams.generate(spark, spec)
    assert(df.filter(col("src") === col("dst")).count() == 0)
    assert(df.filter(col("src") < 0 || col("src") >= spec.nSrc).count() == 0)
    assert(df.filter(col("dst") < 0 || col("dst") >= spec.nSrc).count() == 0)
  }

  test("influencer popularity is heavy-tailed (zipf): top source dominates the median") {
    val counts = bk.groupBy("src").count().orderBy(desc("count")).limit(1000).collect()
    val top    = counts.head.getLong(1)
    val mid    = counts(counts.length / 2).getLong(1)
    assert(top > 10 * mid, s"top=$top mid=$mid — not heavy-tailed")
  }

  test("prefix truncates the stream by timestep") {
    val spec = InteractionStreams.twitterHiggs
    val df   = InteractionStreams.prefix(spark, spec, 100)
    assert(df.agg(max("ts")).collect()(0).getInt(0) <= 99)
    assert(df.count() > 0)
  }

  test("per-source counts agree with DuckDB (Table I plumbing)") {
    val sparkAgg = InteractionStreams
      .prefix(spark, InteractionStreams.twitterHK, 50)
      .groupBy(col("src"))
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT src, count(*) AS n FROM interactions GROUP BY src",
      "interactions" -> InteractionStreams.prefix(spark, InteractionStreams.twitterHK, 50),
    )
  }

  test("distinct node and interaction counts agree with DuckDB") {
    val df = InteractionStreams.prefix(spark, InteractionStreams.twitterHiggs, 300)
    val sparkAgg = df.agg(
      countDistinct(col("src")).as("nsrc"),
      count(lit(1)).as("m"),
    )
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT count(DISTINCT src) AS nsrc, count(*) AS m FROM interactions",
      "interactions" -> df,
    )
  }

  test("all six dataset specs generate non-empty streams") {
    InteractionStreams.all.foreach { spec =>
      val c = InteractionStreams.prefix(spark, spec, 20).count()
      assert(c > 0, s"${spec.name} produced no interactions in 20 steps")
    }
  }

  test("paper Table I reference numbers are recorded for all six datasets") {
    assert(InteractionStreams.all.map(_.name).toSet == InteractionStreams.paperTableI.keySet)
  }
}
