package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.BusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.bench.Workloads
import repro.part.{DistributedGraph, Partitioners}

/** Guards the number of Spark rounds per query: a star query is one
  * per-site round, a general query at level `Full` is three (candidates,
  * LPMs with their summary, the fetch of the surviving LPMs), and the
  * returned result is already at the driver.
  */
class SparkRoundsSpec extends SparkSpec {

  private lazy val w = Workloads.lubm("test")
  private lazy val dg = {
    val d = DistributedGraph.build(spark, w.graph, Partitioners.Hash, 4)
    d.fragTriples.count() // materialise the store outside the counted jobs
    d
  }

  override def afterAll(): Unit = {
    dg.fragTriples.unpersist()
    super.afterAll()
  }

  /** `body`'s value and the number of Spark jobs it started. */
  private def jobs[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val counter = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    BusDrain(sc)
    sc.addSparkListener(counter)
    try {
      val a = body
      BusDrain(sc)
      (a, started.get)
    } finally sc.removeSparkListener(counter)
  }

  for ((name, rounds) <- Seq("LQ2" -> 1, "LQ1" -> 3)) {
    test(s"$name runs in $rounds Spark jobs and its result collects in none") {
      val (_, q, _) = w.queries.find(_._1 == name).get
      dg // built outside the count
      val (res, n) = jobs(GStoreD.evaluate(dg, q))
      assert(n == rounds)
      val (rows, m) = jobs(res.matches.collect())
      assert(m == 0)
      assert(rows.length == res.stats.numMatches && rows.nonEmpty)
    }
  }
}
