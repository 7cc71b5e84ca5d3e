package repro.tdn

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class LifetimesSpec extends SparkSpec {

  test("geometricColumn rejects p outside (0, 1)") {
    intercept[IllegalArgumentException](Lifetimes.geometricColumn(0.0, 10, 1L))
    intercept[IllegalArgumentException](Lifetimes.geometricColumn(1.0, 10, 1L))
    intercept[IllegalArgumentException](Lifetimes.geometricColumn(0.5, 0, 1L))
  }

  test("Spark geometric column stays within 1..L and matches the local mean") {
    import spark.implicits._
    val p = 0.1
    val l = 500
    val df = spark.range(20000).toDF("id")
      .withColumn("lifetime", Lifetimes.geometricColumn(p, l, seed = 42L))
    val stats = df.agg(
      min($"lifetime").as("mn"), max($"lifetime").as("mx"), avg($"lifetime").as("mean"),
    ).collect()(0)
    assert(stats.getInt(0) >= 1)
    assert(stats.getInt(1) <= l)
    val mean = stats.getDouble(2)
    assert(math.abs(mean - 1.0 / p) < 0.5, s"mean=$mean expected ~${1 / p}")
  }

  test("Spark geometric histogram matches the geometric pmf (DuckDB-checked counts)") {
    import spark.implicits._
    val p = 0.5
    val df = spark.range(40000).toDF("id")
      .withColumn("lifetime", Lifetimes.geometricColumn(p, 100, seed = 7L))
      .select($"lifetime")
    // Pr(l=1)=0.5, Pr(l=2)=0.25 — check within 3 sigma.
    val n  = 40000.0
    val c1 = df.filter($"lifetime" === 1).count()
    val c2 = df.filter($"lifetime" === 2).count()
    assert(math.abs(c1 - n * 0.5) < 3 * math.sqrt(n * 0.25), s"c1=$c1")
    assert(math.abs(c2 - n * 0.25) < 3 * math.sqrt(n * 0.1875), s"c2=$c2")
    // The aggregation itself is DuckDB-checked.
    val sparkAgg = df.groupBy($"lifetime").agg(count(lit(1)).as("n")).filter($"lifetime" <= 3)
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT lifetime, count(*) AS n FROM lifetimes WHERE CAST(lifetime AS INT) <= 3 GROUP BY lifetime",
      "lifetimes" -> df,
    )
  }

  test("withGeometricLifetimes appends a lifetime column to an interaction frame") {
    import spark.implicits._
    val df = Seq((0, 1, 2), (1, 2, 3)).toDF("ts", "src", "dst")
    val out = Lifetimes.withGeometricLifetimes(df, 0.3, 10, 1L)
    assert(out.columns.toSeq == Seq("ts", "src", "dst", "lifetime"))
    val ls = out.select("lifetime").collect().map(_.getInt(0))
    assert(ls.forall(l => l >= 1 && l <= 10))
  }
}
